"""Rational reports pinned by sha256 digests.

Each digest covers ``to_jsonable(include_details=True)`` without
``elapsed_ms`` of one report holding the five identity checks of
``JordanAlgebra`` and the model's ``check_quadratic_expansion``.  The
digests were recorded before those checks were rewritten over one array
implementation shared with float mode, so every residual, witness and
sample count of a rational report must come out byte-identical.
"""

import hashlib
import json
import random
from fractions import Fraction

from jordanaff.hypersurface import build_model, reconstruct_algebra
from jordanaff.jordan import JordanAlgebra, NotInvertibleError, direct_sum
from jordanaff.reports import VerificationReport, _jsonable
from jordanaff.structure import check_pair, restricted_pair

F = Fraction

DIGESTS = {
    'reals':
        '0b413fd320eccfe0bbdcb7ead84b603d24f71a1f297cc0dfbb755877225e7617',
    'quadratic(signs=(1, 1))':
        'b9cdc711d1566e44fd422de41e5b2bca01f51f9a9b80b7b489a56618a761a407',
    'quadratic(signs=(1, -1, 1))':
        'f9bb6b5fb7bfd8a603a9db0fc9a896fd15ad02cbbd40c84933c3a87cbe7d5439',
    'quadratic(signs=(-1, -1, -1, 1))':
        '342c8e27752a5db6a04202120f192e8fe0b5ed81a43f49653306529e4df6f40b',
    'full_real(m=2)':
        'ae3a454ea185e209b64beb27036e1c6fe207e864c98bcc2bde49b7c1e66ffb0f',
    'full_real(m=3)':
        'a7f4c5921d5cf8016d11be08ed3d533e288a59e7b2f06f513f19a975432a003c',
    'full_complex(m=2)':
        'd71a99ef56da199149801220aca79e0c75df5dc60769cafe30dc6b0a4cbbe665',
    'symmetric_real(gammas=(1, 1), m=2)':
        'da75dc256e24875ea083e67774b3c8cbf2a75045d3ae9c459af6ada82689093e',
    'symmetric_real(gammas=(1, 1, -1), m=3)':
        '2f88d93c504d06e136febede5df2fe1ae778294765868e41a8110f197ddc77bc',
    'symmetric_real(gammas=(1, 1, 1), m=3)':
        '1f6d8c0aa04a151695d5a433bae4861bacce7c160303ae2d1c5ec083b60c7b5c',
    'hermitian_complex(gammas=(1, -1), m=2)':
        '0459b50254b7c69e926aadcd0872a8e5149712cdb3d0d1538386516571eee154',
    'hermitian_complex(gammas=(1, 1, 1), m=3)':
        '4d955626623b756e8a1ac32ced8c622df363e501e549a7b600e029269daffa1a',
    'hermitian_quaternion(gammas=(1, 1), m=2)':
        'db1ce029eabd1c81b40ee85b3176bf2b690b9b789b8c173bc0477d1c13829b66',
    'skew_hamiltonian(m=2)':
        '0c3e42bf08a80b37a733919aeee7d468042a10f9992f62a7909cb61ff155a21f',
    'complex_field':
        'd115d3a0cb0514a74491969ac91b2a03925722b603e26f784578feac48c45d0f',
    'complex_quadratic(m=3)':
        'da6667b3aa47e3cbb4d192a21d8c24f5f3b0993b0bb593a526e2581d31b1f80e',
    'full_real(m=2)^(10^5/3)':
        'e44fde5cae8aa6a8355fbf6a41522850c254cb64eb03d4f5e555245b54ec7b51',
    'full_real(m=2)^(10^9/3)':
        'e44fde5cae8aa6a8355fbf6a41522850c254cb64eb03d4f5e555245b54ec7b51',
    'full_real(m=3)^(q=31)':
        'eb7a6864181bd3c1bead91f4265c468a44750ee3ce09052e0a66932e1855a412',
    'full_complex(m=2) c[7][7][7] +1/101':
        'a82e486adbf20d03cd2fa516ab3d64523b8d047330bc1022cfb0014685caaa5e',
    'full_complex(m=2) c[7][7][7] -1/101':
        '0f2bfde5865c6153f82129cc203d7879e3c1cc404c996c514f28092196b55a52',
}


def _report_digest(j):
    checks = [j.check_jordan(n_samples=5, seed=1),
              j.check_fundamental(n_samples=4, seed=2),
              j.check_triple(n_samples=20, seed=3),
              j.check_self_adjoint(n_samples=10, seed=4),
              j.check_inverse_identities(n_samples=8, seed=5),
              build_model(j, F(-1)).check_quadratic_expansion()]
    doc = VerificationReport(target=j.name,
                             checks=checks).to_jsonable(include_details=True)
    del doc["elapsed_ms"]
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _cases(desk_instances, get_algebra, big_isotopes):
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        if j.dim <= 9:
            yield j.name, j
    yield from big_isotopes.items()
    base = get_algebra("full_complex", m=2)
    for sign in ("+", "-"):
        c = [[list(cij) for cij in ci] for ci in base.c]
        c[7][7][7] += F(f"{sign}1/101")
        yield f"full_complex(m=2) c[7][7][7] {sign}1/101", \
            JordanAlgebra(c, name="mutant")


def test_rational_reports_match_recorded_digests(desk_instances, get_algebra,
                                                 big_isotopes):
    got = {label: _report_digest(j) for label, j in
           _cases(desk_instances, get_algebra, big_isotopes)}
    assert got == DIGESTS


# -- the exact solvers' outputs ------------------------------------------
#
# sha256 of the unit, the center, the decomposition (ideal tensors and
# bases), three seeded inverses, the reconstructed tensor and the exact
# check_pair report (residuals as strings, without elapsed_ms) of every
# desk instance of dim <= 27, the big isotopes and three direct sums.
# Recorded before the Fraction matrix layer of exactla was replaced by
# one integer elimination; every value must come out identical.  The
# center and decomposition of the q = 31 isotope are left out: the
# Fraction center() scaled each candidate by its own denominator and
# returned no vector at all there (test_jordan.test_center_dimension).

SOLVER_DIGESTS = {
    'reals':
        'ab57c6d93627e68941eba45539f70431af62b325e54af240d2095a1d41d181f6',
    'quadratic(signs=(1, 1))':
        '03e331acdba71a8246a90ee4aaa80f5703dc93966e8f4c0c11dec147032cce60',
    'quadratic(signs=(1, -1, 1))':
        '56e3e3fe90e9758ca19f6cb635dbfa23db536f40c59ac4b4e24576639fce6807',
    'quadratic(signs=(-1, -1, -1, 1))':
        '4e6ac6733460b35da48d3c4906060a7b1c1160e132fb8ba20a932d6cc8346d28',
    'full_real(m=2)':
        '69f01571722cf8278abeea251a94c09d4fb167b4dba71884ed69140bce1c115d',
    'full_real(m=3)':
        '74261bfe1bfa28b5eec7fcf56d90e5bb9a7de9389a6bbb794eafb73aee0d4763',
    'full_complex(m=2)':
        '2684e75a31e029388dba980e94e4045124483a45f0b55b4d26640fda24b56c52',
    'full_quaternion(m=2)':
        'e663c2d1a13c28e4a2694d99bacc0db15d098e53934fbd6638ffb66d63bee1a1',
    'symmetric_real(gammas=(1, 1), m=2)':
        '3834d90d3fdb789084292fc481c9d454b3e14c223f7d21d3fe53779537e46359',
    'symmetric_real(gammas=(1, 1, -1), m=3)':
        '3af44f4882dbe25711ed3f3e4d4e28fd44bd9090949dab9332d82e7cf67de353',
    'symmetric_real(gammas=(1, 1, 1), m=3)':
        '2590169fee055ca635d423aedec77ed6860fc2ceb11c5b2a0c7cfdf6626b9d1f',
    'hermitian_complex(gammas=(1, -1), m=2)':
        '0be6b16ccfbf19985a56b7de74308f37c4dd4b891a987a17f20de4a6f8e1a34a',
    'hermitian_complex(gammas=(1, 1, 1), m=3)':
        '144c906dc8c561b0d90953cc25d6b92a5dc42d35886e55bd823624b0fc4f7df7',
    'hermitian_quaternion(gammas=(1, 1), m=2)':
        'eb1dd60445819f9e6fd6be445ecff9c9d9022679378d1a7fdb3ed273fda57ace',
    'hermitian_quaternion(gammas=(1, 1, -1), m=3)':
        '26b9dca1904fecf35ea32aab485cc38c4a37d1fdf4285e3790502d7510da1a37',
    'skew_hamiltonian(m=2)':
        '5fb1206ce92d18d4025cfa81d83cfe98eee0d034099f334c20dd30830986ca51',
    'skew_hamiltonian(m=3)':
        'e74fe42c7d53003845c0747fca59774301de0bbbc2c9d3cfd6cafe70ef9d9c16',
    'skew_hermitian_quaternion(m=2)':
        'b3e51aebddcc2809a7e3868fac68d06bc63cdc78624c3c68a638ecf6e3a1de48',
    'skew_hermitian_quaternion(m=3)':
        'c6202ef394ed02c14bbb5a161b23eeb90135e398d1589ad34182fd526c9b5126',
    'octonion_hermitian(gammas=(1, 1, 1))':
        '850db4f0e8c7d6560bb1367b5f0a252c47294942a588e4944ef56b88b402d560',
    'octonion_hermitian(gammas=(1, 1, -1))':
        '440bb0cc5cfaca2d678b2f448ee66ae3d12f7d1073f0c40d10faa66354e59a96',
    'split_octonion_hermitian':
        'd1dc9bbe99082907d9a003587c685b78647fad873b15cbba4c75af5908cde83f',
    'complex_field':
        'b6f0e24a435fb6247b47c683e3949b214b01e33629b898ae9dfa4d1c9f2517f2',
    'complex_quadratic(m=3)':
        '9c1914426453d7dd35eb0ca98a1645f7882c8c073c002785caa96e87526caf81',
    'symmetric_complex(m=3)':
        'fe6fb34995383c5f0a638c19d88c4c3014517836d3f1882a948c0070af616294',
    'skew_complex(m=2)':
        'bf2b77d2522d49e5571acd8fd452b4986c74d7013ea06125e36d94d7995bbf21',
    'full_real(m=2)^(10^5/3)':
        'd89c86c4f6f0f435c8790031a477c6bd04e9ba401bc34a0f46b0f818dc4a5ade',
    'full_real(m=2)^(10^9/3)':
        'e8d72429f4b109e826b9a7d4132a881bb33963f9dd3b09b39c7271735d30a65b',
    'full_real(m=3)^(q=31)':
        '32332843cec982388fc793d27cb089f8471c7305b8fe5af0b9ddc4859ac10432',
    'full_real(m=2) (+) quadratic(1,-1,1) (+) reals':
        '5c848a70961323948b3daf38450c36e41cef73cb972be56e23fc12e3ae13d172',
    'complex_field (+) full_real(m=2)':
        '15486175b5758b6459e813eaed462cd4fe0d9907f5d723dc32cb33cd2f130445',
    'quadratic(1,1) (+) quadratic(1,1)':
        '64ada7fcf0ce7ad138ccb1e6931742506b76d5befaffcbf9c664b3c5149f46e8',
}


def _text(x):
    if isinstance(x, (list, tuple)):
        return [_text(v) for v in x]
    return str(x)


def _solver_doc(j, with_center=True):
    rng = random.Random(5)
    inverses = []
    for _ in range(3):
        u = j.random_element(rng, bound=5)
        try:
            inverses.append(_text(j.invert(u)))
        except NotInvertibleError:
            inverses.append("singular")
    report = check_pair(restricted_pair(j), n_samples=3, seed=0)
    doc = {"unity": _text(j.find_unity()), "inverses": inverses,
           "rebuilt": _text(reconstruct_algebra(build_model(j, F(-1))).c),
           "pair": [[c.name, c.passed, str(c.max_residual), c.samples,
                     c.seed, _jsonable(c.details)] for c in report.checks]}
    if with_center:
        doc["center"] = _text(j.center())
        doc["parts"] = [[_text(part.c), _text(basis)]
                        for part, basis in j.decompose(seed=0)]
    return doc


SUMMANDS = {"full_real(m=2)": ("full_real", {"m": 2}),
            "quadratic(1,-1,1)": ("quadratic", {"signs": (1, -1, 1)}),
            "quadratic(1,1)": ("quadratic", {"signs": (1, 1)}),
            "reals": ("reals", {}), "complex_field": ("complex_field", {})}


def _solver_cases(desk_instances, get_algebra, big_isotopes):
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        if j.dim <= 27:
            yield j.name, j
    yield from big_isotopes.items()
    for labels in (("full_real(m=2)", "quadratic(1,-1,1)", "reals"),
                   ("complex_field", "full_real(m=2)"),
                   ("quadratic(1,1)", "quadratic(1,1)")):
        parts = [get_algebra(name, **params)
                 for name, params in (SUMMANDS[lab] for lab in labels)]
        yield " (+) ".join(labels), direct_sum(parts)


def test_solver_outputs_match_recorded_digests(desk_instances, get_algebra,
                                               big_isotopes):
    got = {}
    for label, j in _solver_cases(desk_instances, get_algebra,
                                  big_isotopes):
        doc = _solver_doc(j, with_center=label != "full_real(m=3)^(q=31)")
        text = json.dumps(doc, sort_keys=True)
        got[label] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SOLVER_DIGESTS
