import warnings

import numpy as np
import pytest

from idemkit.cli import main
from idemkit.seeding import trial_stream


def _draws(seed):
    rng = trial_stream(seed, 3, tag=1)
    return tuple(rng.integers(0, 1 << 62, 4).tolist()) + (rng.uniform(), rng.normal())


def test_each_seed_is_rejected_or_gets_its_own_stream():
    streams = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (-1, 0, 1 << 63, (1 << 63) + 1, 1 << 64):
            try:
                streams[seed] = _draws(seed)
            except ValueError as exc:
                assert str(seed) in str(exc)
    assert set(streams) == {0, 1 << 63, (1 << 63) + 1}
    assert len(set(streams.values())) == len(streams)


@pytest.mark.parametrize("seed", [-1, -7, 1 << 64, (1 << 64) + 5])
def test_a_seed_outside_the_domain_is_rejected_by_name(seed):
    with pytest.raises(ValueError, match=rf"^seed {seed} outside \[0, 2\*\*64\)$"):
        trial_stream(seed, 0)


def test_the_top_of_the_seed_domain_keeps_every_bit():
    top = (1 << 64) - 1
    assert _draws(top) != _draws(top - 1) != _draws(0)
    assert _draws((1 << 63) + 1000) != _draws(1 << 63)


def test_seeds_below_two_to_the_63_keep_their_stream():
    # the key the list [seed, tag] gave before the key became a uint64 array
    for seed in (0, 1, 9001, (1 << 63) - 1):
        old = np.random.Generator(np.random.Philox(key=[seed, 1], counter=3 << 128))
        new = trial_stream(seed, 3, tag=1)
        assert new.integers(0, 1 << 62, 4).tolist() == old.integers(0, 1 << 62, 4).tolist()
        assert new.uniform() == old.uniform() and new.normal() == old.normal()


@pytest.mark.parametrize("seed", ["-7", str(1 << 64)])
def test_laws_rejects_a_seed_outside_the_domain(seed, capsys):
    assert main(["laws", "--suite", "unit", "--trials", "3", f"--seed={seed}"]) == 2
    assert f"seed {seed} outside" in capsys.readouterr().err
