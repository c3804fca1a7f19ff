"""Golden digests: sha256 of `private_sum`'s values and of `audit`'s stdout.

The `private_sum` cases pin the encoder's noise draw and the shuffler's
permutation, one `repr` of each value per line; at m = 5000 > tau every
user sends a single biased coin.  `audit` pins the exact audit's
divergences.  A change that must leave every output byte unchanged runs
this file unchanged before and after.
"""

import hashlib

import numpy as np
import pytest

from shufflebandit.cli import main
from shufflebandit.mechanism import derive_params, private_sum

from golden_pins import needs_numpy_stdout


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@needs_numpy_stdout
@pytest.mark.parametrize("m,n,want", [
    (300, 1000,
     "60eac55120a18f3513f1983c6d7320a6851b901d466487bd8182c6f8d27aa1ba"),
    (5000, 200,
     "4be1c54a271344e1b942976cbf9a737599ac9a2a8195983e50d307f56ada873d"),
], ids=["fair-coins", "one-biased-coin"])
def test_private_sum_digest(m, n, want):
    params = derive_params(0.8, 1e-3)
    zeros = np.zeros(m, dtype=np.int8)
    rng = np.random.default_rng(7)
    lines = [repr(private_sum(zeros, params, rng).value) + "\n"
             for _ in range(n)]
    assert digest("".join(lines)) == want


@pytest.mark.parametrize("argv,want", [
    pytest.param(
        ["audit", "--m", "1,2,42,1024,4096", "--eps", "0.25,0.5,1",
         "--delta", "1e-5"],
        "f16191438d5786ade1c1e41c902cef3db46690b4022e3087c7cdc8edb7c81da2",
        marks=needs_numpy_stdout, id="audit"),
])
def test_stdout_digest(capsys, argv, want):
    assert main(argv) == 0
    assert digest(capsys.readouterr().out) == want
