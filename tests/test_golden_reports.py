"""Golden law reports: the sha256 of `idemkit laws --json` on fixed seeds.

The clean reports hold little more than `"ok": true`, but the drop-weight
reports hold every shrunk witness, with its weights, so a change that moves
a float, the order of a support or the path of the shrinker changes their
bytes.  The 100-trial hashes were recorded before the constructors' fast
paths went in, and the two 300-trial drop-weight ones, the self-test's own
size, before each trial drew a side only when it checks it; a deliberate
change to the reports must record them again and list the cause in the
change log.
"""

from __future__ import annotations

import hashlib

import pytest

from idemkit.cli import main

GOLDEN_REPORTS = {
    ("unit", 100, 0, True): "67591045fab1e4f7e6259058b4c8502d2a9b46b3f9378783e9d3ab29c7414906",
    ("unit", 100, 1, True): "afb4bc16491e1e53ba2001b8e35102316e1281bbcdfedba4e1f1108bed6fa391",
    ("assoc", 100, 0, True): "35d7702b6e164321ad0027fb26897b010c648c0a12c768f28f9ac67d5f5c0965",
    ("assoc", 100, 1, True): "21bf8dbb80e51e685e4b49218fac775da51b4e656f1f2553c6f5b7bd0358a964",
    ("all", 100, 0, False): "22d6c36eefa8ada7fbb6b333b74c747c0e9f0181686709ae8384f1eb8e1a974d",
    ("unit", 300, 42, True): "a63d6994fec502bfdab9ce1ce009edd2786474cf0827b15d61ee3d3821274857",
    ("assoc", 300, 42, True): "98e9fc294a003b3fdffc2dd95a5be8ba785b8e3886bca17420c185c7ba104baf",
    # the all-suite report at 500 trials, seed 0: the oracle every refactor keeps
    ("all", 500, 0, False): "70fd7ccacf0d19f07a9b4b84884bdd78e7424ebc83dcb32a3b31bed8b4ce9416",
}


@pytest.mark.parametrize(
    "suite, trials, seed, mutate",
    list(GOLDEN_REPORTS),
    ids=[f"{s}-{t}-seed{d}{'-drop-weight' if m else ''}" for s, t, d, m in GOLDEN_REPORTS],
)
def test_law_report_bytes_are_unchanged(tmp_path, capsys, suite, trials, seed, mutate):
    path = tmp_path / "report.json"
    argv = ["laws", "--suite", suite, "--trials", str(trials), "--seed", str(seed), "--json", str(path)]
    if mutate:
        argv += ["--mutate", "drop-weight"]
    assert main(argv) == (1 if mutate else 0)
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORTS[suite, trials, seed, mutate]
