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
# one integer elimination; every value must come out identical.  They
# were recorded again when kk_in_k became a proof: its samples and seed
# now read 0 and None, and with those two fields masked every document
# is the same as before.  The center and decomposition of the q = 31
# isotope are left out: the Fraction center() scaled each candidate by
# its own denominator and returned no vector at all there
# (test_jordan.test_center_dimension).

SOLVER_DIGESTS = {
    'reals':
        '92c01b29f36f11766ae9df974a72c0db92f1dca369f0594ac79b1bb59bc45be3',
    'quadratic(signs=(1, 1))':
        'ca41855647704fa1e570f4cba419d73ebda70f11115d8e8088a801fd7c869fb7',
    'quadratic(signs=(1, -1, 1))':
        'de183ec42275535e26c2e2f578343db451d4c7232d276566952a464d86c1114c',
    'quadratic(signs=(-1, -1, -1, 1))':
        'a3fd861983b08756ff34b08bbbc766685ba2d33cd286e0cf56b59684fc1543df',
    'full_real(m=2)':
        '04342687d8035a81551fce7a4ed9b618346fa55dd049b9f4361f909d8ee38ea0',
    'full_real(m=3)':
        'f3278a46914fa78888320618745d822220de90fe26bd0faa5248a277c4521142',
    'full_complex(m=2)':
        '2d6ce80ab4222ad84c00c7559aae9935c32ec5305f970f351c69c2fab1576104',
    'full_quaternion(m=2)':
        'aaf024795fcd32862d544ff3a03e0113e957def6d655161394236ebc11008879',
    'symmetric_real(gammas=(1, 1), m=2)':
        '551e786b02cbb3c4626e5e1b10bbb329fd3b795b9491df40f23d0c2099c7933e',
    'symmetric_real(gammas=(1, 1, -1), m=3)':
        'bf28f424856821b4172ad939bd47bf7b5ce30d9deb9e76a19ba823937c847c35',
    'symmetric_real(gammas=(1, 1, 1), m=3)':
        '899297636489ff2472da7313e100430c79bdcdbd2ba99aac7a7963a241429f4e',
    'hermitian_complex(gammas=(1, -1), m=2)':
        '04d5f86c418fd74d1b1cfcf7cdfc8bc970c3eece92b303c9dfc574bf1dbe5932',
    'hermitian_complex(gammas=(1, 1, 1), m=3)':
        '766ddca8462e4149f03ff4345af27ca358f23147c790e163e249fa078dea2370',
    'hermitian_quaternion(gammas=(1, 1), m=2)':
        '8e80d9b2a1f936396c76b9defb0b85ee4cd2ff7b87349115443fb3055031cc0d',
    'hermitian_quaternion(gammas=(1, 1, -1), m=3)':
        '3624ea8e6b8797fb9c1e9cbbeae6d6a2c609a9ccbb8fe80838dae89b0dac0c9b',
    'skew_hamiltonian(m=2)':
        'ffe36b5f9d1f73f431f2a75a7b3ec76aceecd9bf14e3ecb403cf69616ff5f74c',
    'skew_hamiltonian(m=3)':
        'f84704747d2d487b11fb2d286a4940762653be05f603b41bc658c0c8dacb0eb5',
    'skew_hermitian_quaternion(m=2)':
        '360a3817415fd70ae19f653b00b38f2c9b14adefae1ffcf7cfefb1a2d48078c5',
    'skew_hermitian_quaternion(m=3)':
        '04544d0cc664fc9c197035dfc2c5cd51cb209aafcaf88c95303b865b8e02872b',
    'octonion_hermitian(gammas=(1, 1, 1))':
        '96682dd7bb6589b8b981892fb942916e9d3268d89627d09de8875b3abbe7e043',
    'octonion_hermitian(gammas=(1, 1, -1))':
        'da315ba1b36f9c843ed0550686ab840b24201bc01597795ad78efda359f15fe9',
    'split_octonion_hermitian':
        '3efbdf633dc9a43fe315b921b33187350a488cc07b3c8574921421dd84b56ca1',
    'complex_field':
        'd96db60a5fc82b1dce88f46cccff22fc63e17202c6ebb934f5c301a7aba7a0b8',
    'complex_quadratic(m=3)':
        'f0e16218accc2901e82e1d2e86cc31a3d2a9bf9bd58d77a3965e681d10498c3c',
    'symmetric_complex(m=3)':
        '7f523f96ba9e95317d1305e141a304b296f967cfee884d6d7a4b8c1bd01aca7e',
    'skew_complex(m=2)':
        'ecab43b1d7b2501dd9efc292d1653c67339fd2041c5cac41bd0fcb2168f55733',
    'full_real(m=2)^(10^5/3)':
        '885c5302cf925cb85bdf061a4173d6aa31af108064331aaffe79896bc1c84bb2',
    'full_real(m=2)^(10^9/3)':
        '77cc43f22abdeed346452f3042528d2c0ade44bc1d4181fbaa693f5e9a6f05fb',
    'full_real(m=3)^(q=31)':
        'c4604611d67ecc240d8930a30842e1f9caf9f5ce748c8a740f37b63c1e33be9b',
    'full_real(m=2) (+) quadratic(1,-1,1) (+) reals':
        '2383965630d533fe7657e786240ce716829ed30347b7f7300431ab3109c958e1',
    'complex_field (+) full_real(m=2)':
        '31b7e6b92566fa34947097e4fae344613bf573eb272b3f2d4f46b2732a88340a',
    'quadratic(1,1) (+) quadratic(1,1)':
        'deeb87e8d13cf7dfc89a0ed5cea9ced80beccad63ab69e612d2c5df127b6d4c2',
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
