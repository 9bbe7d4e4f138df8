"""The `cli` part: `python -m idemkit.cli` in a fresh process per call.

Small-document calls (`laws --list`, hull membership and combinations, a
barycenter, an integral on a possibility document) measure interpreter
start, imports and argument handling.  Large-document calls (an integral
against a full capacity table and a density converted both ways) add
document decoding and encoding.  Calls run one at a time, in sequence.

The part has one size and runs in every workload, on fixed inputs, so
`light` is accepted only to match the other parts.  Each call is calibrated
by a bare interpreter start (`python -c pass`) next to it, not by the dict
loop: the start of a child process drifts with the host unlike a loop in
the parent does, and it does not depend on idemkit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import reference as ref
from common import ROOT, SRC, Calibration, Ledger, clock, labels, median, median_of

CALL_TIMEOUT_S = 60
# a bare interpreter start on a quiet reference host
INTERPRETER_REF_S = 0.050


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    t0 = clock()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CALL_TIMEOUT_S,
    )
    return proc, clock() - t0


def interpreter_sample() -> float:
    return spawn(["-c", "pass"])[1]


def _parse_point(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.strip().strip("[]").split(",")])


def _close9(got: float, expected: float) -> bool:
    """Equal to 9 significant digits, as the CLI prints."""
    return abs(got - expected) <= 1e-8 * max(1.0, abs(expected))


class Cli:
    name = "cli"
    min_rounds = 1

    def __init__(self, ik, seed: int, light: bool, workdir):
        gen, docs = ik.generate, ik.documents
        rng = np.random.default_rng([seed, 0xC11])
        cap_n, dens_n = 14, 10_000

        def write(name, doc) -> str:
            path = str(workdir / name)
            docs.dump_json(doc, path)
            return path

        small = ik.FiniteSpace(tuple("abcde"))
        pi = gen.random_possibility_profile(rng, small)
        phi = gen.random_real_function(rng, small)
        self.small_args = ["--space", write("space5.json", docs.space_to_doc(small)),
                           "--capacity", write("poss5.json", docs.possibility_to_doc(pi)),
                           "--function", write("fn5.json", docs.function_to_doc(phi))]
        table = ref.expand_profile(np.array([pi.singletons[p] for p in small.points]))
        values = np.array([phi.values[p] for p in small.points])
        self.small_integral = ref.level_set_integral(table, values)
        with np.errstate(divide="ignore"):
            self.small_pointwise = float(np.max(values + np.log(table[1 << np.arange(len(small))])))

        self.gens = rng.uniform(-4.0, 4.0, (4, 3))
        self.gens_path = write("gens.json", {"dim": 3, "points": self.gens.tolist()})
        self.w_combine = gen.random_weight_vector(rng, 4)
        self.w_bary = gen.random_weight_vector(rng, 4)
        self.inside = ref.max_combination(self.gens, self.w_combine)
        self.outside = self.inside.copy()
        self.outside[0] = self.gens[:, 0].max() + 1.0

        space = ik.FiniteSpace(labels("p", cap_n))
        c = gen.random_capacity(rng, space)
        psi = gen.random_real_function(rng, space)
        self.cap_args = ["--space", write("space_cap.json", docs.space_to_doc(space)),
                         "--capacity", write("cap.json", docs.capacity_to_doc(c)),
                         "--function", write("fn_cap.json", docs.function_to_doc(psi))]
        self.cap_integral = ref.level_set_integral(
            np.array(c.table), np.array([psi.values[p] for p in space.points])
        )

        dspace = ik.FiniteSpace(labels("x", dens_n))
        f = gen.random_maxplus_density(rng, dspace)
        self.dens_path = write("dens.json", docs.density_to_doc(f))
        self.dens = np.array([f.weights[p] for p in dspace.points])
        self.dens_labels = dspace.points
        self.times_path = str(workdir / "times.json")
        self.back_path = str(workdir / "back.json")
        self.suites = ik.suite_names()
        self.interpreter = Calibration("interpreter", interpreter_sample, 1, INTERPRETER_REF_S)

    def _call(self, led: Ledger, times: dict[str, float], what: str, args: list[str]) -> str | None:
        """One CLI call; its latency goes to `times` when it exits 0."""
        led.attempted += 1
        try:
            (proc, _), dt = led.timed(spawn, ["-m", "idemkit.cli", *args], calibration=self.interpreter)
        except subprocess.TimeoutExpired:
            led.fail(what, "timed out")
            return None
        if proc.returncode != 0:
            led.fail(what, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        times[what] = dt
        return proc.stdout

    def round(self, led: Ledger, index: int | None = None) -> dict[str, dict[str, float]]:
        """Every round makes the same calls, so `index` is unused."""
        small: dict[str, float] = {}
        large: dict[str, float] = {}

        out = self._call(led, small, "laws --list", ["laws", "--list"])
        if out is not None:
            names = [line.split(":", 1)[0] for line in out.splitlines()]
            led.expect(names == self.suites, "laws --list does not list every suite")

        for what, point, expected in (("hull member inside", self.inside, "true"),
                                      ("hull member outside", self.outside, "false")):
            out = self._call(led, small, what, ["hull", "member", "--generators", self.gens_path,
                                                "--point", json.dumps(point.tolist())])
            if out is not None:
                led.expect(out.strip() == expected, f"{what} printed {out.strip()!r}")

        for what, command, flag, w in (
            ("hull combine", ["hull", "combine"], "--weights", self.w_combine),
            ("barycenter", ["barycenter"], "--density", self.w_bary),
        ):
            doc = json.dumps({"weights": ["-inf" if np.isneginf(v) else float(v) for v in w]})
            out = self._call(led, small, what, [*command, "--generators", self.gens_path, flag, doc])
            if out is not None:
                got = _parse_point(out)
                expected = ref.max_combination(self.gens, w)
                led.expect(got.shape == expected.shape and all(map(_close9, got, expected)),
                           f"{what} differs from the numpy max-combination")

        out = self._call(led, small, "integrate possibility", ["integrate", *self.small_args, "--both"])
        if out is not None:
            lines = out.splitlines()
            led.expect(len(lines) == 3, "integrate --both prints three lines")
            if len(lines) == 3:
                value, pointwise, diff = float(lines[0]), float(lines[1].split()[1]), float(lines[2].split()[1])
                led.expect(_close9(value, self.small_integral), "integrate misses the level-set reference")
                led.expect(_close9(pointwise, self.small_pointwise), "pointwise form misses the reference")
                led.expect(diff <= 1e-9, "integrate --both reports a difference above 1e-9")

        out = self._call(led, large, "integrate capacity", ["integrate", *self.cap_args])
        if out is not None:
            led.expect(_close9(float(out.strip()), self.cap_integral), "integrate misses the level-set reference")

        what = "convert maxplus->maxtimes"
        out = self._call(led, large, what, ["convert", "--from", "maxplus", "--to", "maxtimes",
                                            "--input", self.dens_path, "--output", self.times_path])
        if out is not None:
            self._check_converted(led, self.times_path, "maxtimes", np.exp(self.dens))
        what = "convert maxtimes->maxplus"
        out = self._call(led, large, what, ["convert", "--from", "maxtimes", "--to", "maxplus",
                                            "--input", self.times_path, "--output", self.back_path])
        if out is not None:
            self._check_converted(led, self.back_path, "maxplus", self.dens)
        return {"small": small, "large": large}

    def _check_converted(self, led: Ledger, path: str, kind: str, expected: np.ndarray) -> None:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        vals = doc.get("values", {})
        ok = doc.get("kind") == kind and sorted(vals) == list(self.dens_labels)
        if ok:
            got = np.array([-np.inf if vals[p] == "-inf" else float(vals[p]) for p in self.dens_labels])
            bottom = np.isneginf(expected) | (expected == 0.0)
            ok = np.array_equal(got[bottom], expected[bottom]) and bool(
                np.all(np.abs(got[~bottom] - expected[~bottom]) <= 1e-12)
            )
        led.expect(ok, f"convert to {kind} does not return the input within 1e-12")

    @staticmethod
    def metrics(rounds) -> dict[str, float]:
        """Median over the calls of each call's median latency over the rounds."""
        return {
            "cli_call_ms": 1e3 * median(median_of(rounds, "small").values()),
            "cli_doc_call_ms": 1e3 * median(median_of(rounds, "large").values()),
        }
