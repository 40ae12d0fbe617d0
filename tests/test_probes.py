"""Probe generation is pinned byte for byte.

The digests below are SHA-256 sums of the coefficient bytes of every probe,
in order, recorded from the one-sequence-at-a-time generator.  Any change to
the Philox draw order, the decay profiles, the normalisation or the centring
shows up here before it shows up in a certificate.
"""

import hashlib

import numpy as np
import pytest

from tamef.graded import BanachFiber, ProductBatch, SequenceSpace
from tamef.probes import make_probes, make_product_probes


def digest(probes) -> str:
    h = hashlib.sha256()
    for element in probes:
        parts = element.parts if isinstance(element, ProductBatch) \
            else (element,)
        for part in parts:
            h.update(np.ascontiguousarray(part.coefficients).tobytes())
    return h.hexdigest()


REAL1 = SequenceSpace(BanachFiber(1), truncation_degree=32, n_max=6)
REAL3 = SequenceSpace(BanachFiber(3), truncation_degree=16, n_max=6)
COMPLEX2 = SequenceSpace(BanachFiber(2, "complex"), truncation_degree=12,
                         n_max=4)
LINF_SUP = SequenceSpace(BanachFiber(2, norm_kind="supremum"),
                         truncation_degree=20, n_max=4, grading_kind="linf")
TINY = SequenceSpace(BanachFiber(1), truncation_degree=1, n_max=4)

CASES = {
    "real-d1": lambda: make_probes(REAL1, 2500, seed=7),
    "real-d3": lambda: make_probes(REAL3, 301, seed=11),
    "complex-d2": lambda: make_probes(COMPLEX2, 200, seed=5),
    "linf-supremum": lambda: make_probes(LINF_SUP, 100, seed=3),
    "tiny-truncation": lambda: make_probes(TINY, 40, seed=2),
    "centred": lambda: make_probes(REAL1, 61, seed=31, region_radius=0.3,
                                   center=REAL1.basis(0, scale=2.0)),
    "centred-complex": lambda: make_probes(
        COMPLEX2, 50, seed=8, region_radius=0.5,
        center=COMPLEX2.basis(2, axis=1, scale=1.5)),
    "no-monomials": lambda: make_probes(REAL3, 70, seed=4,
                                        include_monomials=False,
                                        alphas=(0.25, 3.0)),
    "below-ladder": lambda: make_probes(REAL1, 4, seed=9),
    "below-ladder-centred": lambda: make_probes(
        REAL3, 5, seed=9, region_radius=0.2, center=REAL3.basis(1)),
    "product": lambda: make_product_probes((REAL1, REAL1), 130, seed=5),
    "product-mixed": lambda: make_product_probes((REAL3, REAL1), 40, seed=12,
                                                 region_radius=0.5),
}

PINNED = {
    "below-ladder": "205b5bf9e989e7d1e82500fbd3cb4db0c596d16bada0cc39848a87b3287b914a",
    "below-ladder-centred": "ea03ccf3d7740ca067590e733ce6f2e98bd4d245f3c7e705c9cd1bf79e136cf0",
    "centred": "beb66973c33be68e408d5e2e4fb7bc477e2d809da789a2a27bb6d485b66b90e9",
    "centred-complex": "6c7f319a1c96152b3ee36ac7c609f8093dd7d3f494e8530c7cb0c237d2bda53f",
    "complex-d2": "c4f1247ab6b1ba31f7b71860ff2f018da3cffc92808bcceac19f94b8c83ae9ca",
    "linf-supremum": "e9af435ff9ab507e386262dd3f0aec7eaf72fb1e8e026aef95480f4d47ed28b2",
    "no-monomials": "5a63b0e9e16c5982a354c5d048ab5373b32f464fe4f631408a2fac1e526da227",
    "product": "d594b99e500d246f86e2292f59e70f2aa33efc43d2b0b49349e99a6c743e570a",
    "product-mixed": "6a4bccc8262edd8bae74bac7395c1b0a1131d97f6e048fc8146bad1b5286072d",
    "real-d1": "46c688181c07da13c1d41575bc5ea10a98a6286ee44931831feb89169ceec492",
    "real-d3": "090b32a3d2949a0f9d9644687f02cd0084996b20cd3aaa98123ff4be10527e69",
    "tiny-truncation": "eeb21265b670ca7ab95caaf556eac95128ce8f34d62d10ffc7690b1ca0e169cf",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_probe_bytes_are_pinned(name):
    assert digest(CASES[name]()) == PINNED[name]
