"""Golden CLI stdout: sha256 of three fixed command lines.

`mechanism sample` prints `private_sum` values, so its stdout pins the
encoder's noise draw and the shuffler's permutation; at m = 5000 > tau every
user sends a single biased coin.  `audit` pins the exact audit's divergences.
A change that must leave every output byte unchanged runs this file unchanged
before and after.
"""

import hashlib

import pytest

from shufflebandit.cli import main

from golden_pins import needs_numpy_stdout

SAMPLE = ["mechanism", "sample", "--eps", "0.8", "--delta", "1e-3",
          "--seed", "7"]


@pytest.mark.parametrize("argv,digest", [
    pytest.param(
        SAMPLE + ["--m", "300", "--n", "1000"],
        "60eac55120a18f3513f1983c6d7320a6851b901d466487bd8182c6f8d27aa1ba",
        marks=needs_numpy_stdout, id="sample-fair-coins"),
    pytest.param(
        SAMPLE + ["--m", "5000", "--n", "200"],
        "4be1c54a271344e1b942976cbf9a737599ac9a2a8195983e50d307f56ada873d",
        marks=needs_numpy_stdout, id="sample-one-biased-coin"),
    pytest.param(
        ["audit", "--m", "1,2,42,1024,4096", "--eps", "0.25,0.5,1",
         "--delta", "1e-5"],
        "f16191438d5786ade1c1e41c902cef3db46690b4022e3087c7cdc8edb7c81da2",
        marks=needs_numpy_stdout, id="audit"),
])
def test_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
