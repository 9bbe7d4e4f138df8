import re
import warnings

import numpy as np
import pytest

from idemkit.cli import main
from idemkit.seeding import trial_stream, trial_streams


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


@pytest.mark.parametrize("seed", [1.5, True, "3", 3.0, None], ids=repr)
def test_a_seed_that_is_not_an_integer_is_rejected_by_name(seed):
    message = rf"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        trial_stream(seed, 0)
    with pytest.raises(ValueError, match=message):
        trial_streams(seed)


def test_a_numpy_integer_seed_keys_the_stream_of_its_int():
    for seed in (np.int64(7), np.uint64((1 << 64) - 1), np.int32(0)):
        assert _draws(seed) == _draws(int(seed))
        assert _every_kind_of_draw(trial_streams(seed, 1)(3)) == _every_kind_of_draw(
            trial_stream(int(seed), 3, 1)
        )


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


def _every_kind_of_draw(rng):
    return (
        rng.integers(0, 1 << 62, 3).tolist(),
        rng.integers(0, 2**31),  # a 32-bit draw: leaves half a word behind
        rng.uniform(-3.0, 3.0, 2).tolist(),
        rng.random(),
        rng.normal(size=3).tolist(),
        rng.integers(0, 5, 4).tolist(),
    )


@pytest.mark.parametrize("seed", [0, 1, 1 << 63, (1 << 64) - 1])
def test_trial_streams_draw_what_trial_stream_draws(seed):
    for tag in (1, 2, 17, 121):
        stream = trial_streams(seed, tag)
        for index in (0, 1, 7, 1 << 40):
            assert _every_kind_of_draw(stream(index)) == _every_kind_of_draw(
                trial_stream(seed, index, tag)
            )


def test_trial_streams_re_key_a_half_used_generator():
    stream = trial_streams(9001, tag=17)
    for index in (3, 3, 4, 0, 1 << 40):
        rng = stream(index)
        assert rng is stream(index)  # one generator, re-keyed
        assert _every_kind_of_draw(rng) == _every_kind_of_draw(trial_stream(9001, index, 17))
        # the previous trial leaves a buffer half used and a 32-bit half cached
        rng.integers(0, 2**31)
        rng.uniform()


def test_streams_of_two_loops_do_not_alias():
    outer, inner = trial_streams(5, tag=1), trial_streams(5, tag=1)
    rng = outer(2)
    first = rng.uniform()
    inner(7).uniform(size=4)
    reference = trial_stream(5, 2, 1)
    assert first == reference.uniform() and rng.uniform() == reference.uniform()


@pytest.mark.parametrize("seed", [-1, -7, 1 << 64, (1 << 64) + 5])
def test_trial_streams_reject_a_bad_seed_as_trial_stream_does(seed):
    with pytest.raises(ValueError, match=rf"^seed {seed} outside \[0, 2\*\*64\)$"):
        trial_streams(seed)


def test_trial_streams_reject_a_bad_index_as_trial_stream_does():
    stream = trial_streams(0)
    for index in (-1, -(1 << 70), 1 << 128):
        with pytest.raises(ValueError) as from_stream:
            stream(index)
        with pytest.raises(ValueError) as from_trial_stream:
            trial_stream(0, index)
        assert str(from_stream.value) == str(from_trial_stream.value)
    assert str(from_stream.value) == "trial index must be below 2**128"
    with pytest.raises(ValueError, match="^trial index must be non-negative$"):
        stream(-1)


@pytest.mark.parametrize("index", [1.5, "2", True, np.True_, 3.0, None], ids=repr)
def test_a_trial_index_that_is_not_an_integer_is_rejected_by_name(index):
    message = rf"^trial index must be an integer, got {re.escape(repr(index))}$"
    with pytest.raises(ValueError, match=message):
        trial_stream(0, index)
    with pytest.raises(ValueError, match=message):
        trial_streams(0)(index)


@pytest.mark.parametrize("tag", [1.9, "7", True, np.float64(2.0), None], ids=repr)
def test_a_tag_that_is_not_an_integer_is_rejected_by_name(tag):
    message = rf"^tag must be an integer, got {re.escape(repr(tag))}$"
    with pytest.raises(ValueError, match=message):
        trial_stream(0, 2, tag=tag)
    with pytest.raises(ValueError, match=message):
        trial_streams(0, tag=tag)


def test_an_index_or_tag_that_int_would_round_no_longer_draws_another_stream():
    # each of these drew the stream of the int it rounds to
    with pytest.raises(ValueError, match=r"^trial index must be an integer, got 1\.5$"):
        trial_stream(0, 1.5)
    with pytest.raises(ValueError, match="^trial index must be an integer, got '2'$"):
        trial_stream(0, "2", tag=1.9)
    with pytest.raises(ValueError, match="^tag must be an integer, got '7'$"):
        trial_streams(0, tag="7")(True)


def test_numpy_integer_indices_and_tags_draw_the_stream_of_their_int():
    for index, tag in ((np.int64(3), np.uint8(1)), (np.uint64(1 << 40), np.int32(-1)), (np.int16(0), 17)):
        expected = _every_kind_of_draw(trial_stream(5, int(index), int(tag)))
        assert _every_kind_of_draw(trial_stream(5, index, tag)) == expected
        assert _every_kind_of_draw(trial_streams(5, tag)(index)) == expected
    # a tag keeps its low 64 bits, as before
    assert _every_kind_of_draw(trial_stream(5, 2, (1 << 64) + 3)) == _every_kind_of_draw(
        trial_stream(5, 2, 3)
    )
    assert _every_kind_of_draw(trial_stream(5, 2, -1)) == _every_kind_of_draw(
        trial_stream(5, 2, (1 << 64) - 1)
    )
