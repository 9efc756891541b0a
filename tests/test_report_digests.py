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
from fractions import Fraction

from jordanaff.hypersurface import build_model
from jordanaff.jordan import JordanAlgebra
from jordanaff.reports import VerificationReport

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
    doc = VerificationReport(target=j.name, mode=j.mode,
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
