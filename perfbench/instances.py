"""Workloads of the stablecut benchmark: seeded instance lists and set-up.

Each workload is a fixed list of instance shapes.  The workload seed draws
each instance's generator seed and gamma, and set-up writes the instance
files through the real `stablecut gen planted` command.  The program only
ever sees those files.  The benchmark reads the files back with its own
parser, so the facts the output checks use (cut values, exact maxima,
certified maxima, relaxation tightness) never come from stablecut code.

Set-up has two steps.  plan() draws the instances and keeps the ones the
workload's relaxation filter accepts; it is not timed.  write() writes the
accepted files again; it is what setup_s times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Partitions per block in the benchmark's own exhaustive enumeration.
_ENUM_BLOCK = 1 << 15
# The relaxation filters compare kernel eigenvalues with _MARGIN * max|w|.
# "untight": the kernel diagonal of the exact maximum cut leaves
#   W + diag(d) with lambda_min below -_MARGIN * max|w|.
# "tight": the planted cut's kernel matrix is positive semidefinite up to
#   rounding (so the planted cut is a maximum) and its second eigenvalue is
#   above _MARGIN * max|w| (so the relaxation is strictly tight and a
#   correct dual solver certifies it).
_MARGIN = 1e-2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "solve"
    # (n, gamma_low, gamma_high) per instance; gamma is drawn in the range.
    shapes: tuple[tuple[int, float, float], ...]
    relaxation: str | None  # None, "untight" or "tight"; see _MARGIN


# Why each workload exists is in README.md.  The size mixes keep the median
# latency inside one mode: two thirds n=18 on verify-exact, two thirds n=200
# on solve-stable-large, and every solve-hard-small op runs the full dual.
# solve-hard-small is short so that one pass over it (about 1 s an op)
# fits in the timed loop more than once.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-exact", "verify", ((18, 1.25, 2.0), (18, 1.25, 2.0), (20, 1.25, 2.0)) * 2,
                 None),
        Workload("solve-hard-small", "solve", ((12, 1.0, 1.25), (14, 1.0, 1.25), (16, 1.0, 1.25)) * 3,
                 "untight"),
        Workload("solve-stable-large", "solve", ((100, 2.0, 2.0), (200, 4.0, 4.0), (200, 2.0, 2.0),
                                                 (100, 4.0, 4.0), (200, 2.0, 2.0), (200, 4.0, 4.0)) * 2,
                 "tight"),
    )
}


@dataclass
class Instance:
    """One instance file.  Its weights and planted cut are parsed on first use."""

    path: str
    gamma: float
    # The maximum cut value when the benchmark has certified it from the
    # planted cut (relaxation "tight"), else None.
    certified_max: float | None = None

    def argv(self, command: str, out: str) -> list[str]:
        if command == "verify":
            return ["verify", self.path, "-o", out]
        return ["solve", self.path, "--solver", "all", "--gamma", repr(self.gamma), "-o", out]

    @cached_property
    def weights(self) -> np.ndarray:
        with open(self.path, encoding="ascii") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip() and not ln.startswith("#")]
        n, m = (int(x) for x in lines[0].split())
        if len(lines) != m + 1:
            raise ValueError(f"{self.path}: expected {m} edge lines, found {len(lines) - 1}")
        w = np.zeros((n, n))
        for ln in lines[1:]:
            u, v, wt = ln.split()
            w[int(u), int(v)] = w[int(v), int(u)] = float(wt)
        return w

    @cached_property
    def planted(self) -> np.ndarray:
        with open(os.path.splitext(self.path)[0] + ".json", encoding="ascii") as fh:
            return np.asarray(json.load(fh)["planted_cut"], dtype=np.float64)

    def cut_value(self, signs) -> float:
        s = np.asarray(signs, dtype=np.float64)
        return float((self.weights.sum() - s @ self.weights @ s) / 4.0)

    @cached_property
    def _enumerated(self) -> np.ndarray:
        return enumerate_cut_values(self.weights)

    def maximum(self, tie_rel_tol: float) -> tuple[float, int, np.ndarray]:
        """Exact maximum cut value, the number of partitions that tie with it,
        and the signs of the first maximal partition."""
        values = self._enumerated
        mask = int(np.argmax(values))
        best = float(values[mask])
        ties = int((values >= best - tie_rel_tol * max(1.0, abs(best))).sum())
        signs = np.ones(self.weights.shape[0])
        signs[1:] = 1.0 - 2.0 * ((mask >> np.arange(signs.size - 1)) & 1)
        return best, ties, signs

    def kernel_eigvals(self, signs) -> np.ndarray:
        """Eigenvalues, ascending, of W + diag(d) for the cut's kernel diagonal d."""
        s = np.asarray(signs, dtype=np.float64)
        m = self.weights.copy()
        np.fill_diagonal(m, -s * (self.weights @ s))
        return np.linalg.eigvalsh(m)

    def kernel_lambda_min(self, signs) -> float:
        return float(self.kernel_eigvals(signs)[0])


def enumerate_cut_values(w: np.ndarray) -> np.ndarray:
    """Cut value of every partition with vertex 0 on the +1 side."""
    n = w.shape[0]
    total = w.sum()
    count = 1 << (n - 1)
    shifts = np.arange(n - 1, dtype=np.int64)
    out = np.empty(count)
    for start in range(0, count, _ENUM_BLOCK):
        masks = np.arange(start, min(start + _ENUM_BLOCK, count), dtype=np.int64)
        s = np.ones((masks.size, n))
        s[:, 1:] = 1.0 - 2.0 * ((masks[:, None] >> shifts) & 1)
        out[start : start + masks.size] = (total - np.einsum("ki,ki->k", s @ w, s)) / 4.0
    return out


@dataclass(frozen=True)
class Planned:
    """One accepted instance: its `gen planted` arguments and known facts."""

    argv: tuple[str, ...]  # without "-o DIR"
    gamma: float
    certified_max: float | None


def _gen(cli, argv, outdir: str) -> str:
    argv = [*argv, "-o", outdir]
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: {argv}")
    return printed.getvalue().strip()


def _relaxation_untight(inst: Instance, tie_rel_tol: float) -> bool:
    _, _, signs = inst.maximum(tie_rel_tol)
    return inst.kernel_lambda_min(signs) < -_MARGIN * float(inst.weights.max())


def _certified_planted_max(inst: Instance, tie_rel_tol: float) -> float | None:
    """The planted cut's value if its kernel certifies it strictly, else None.

    By weak duality every cut is at most value + n * (-lambda_1)+ / 4.
    """
    lam = inst.kernel_eigvals(inst.planted)
    value = inst.cut_value(inst.planted)
    slack = lam.size * max(0.0, -float(lam[0])) / 4.0
    if slack > tie_rel_tol * max(1.0, value) or lam[1] < _MARGIN * float(inst.weights.max()):
        return None
    return value


def plan(workload: Workload, seed: int, cli, workdir: str, tie_rel_tol: float) -> list[Planned]:
    """Draw the workload's instances for this seed, redrawing any that its
    relaxation filter rejects.  Candidates are written to workdir to be tested."""
    rng = random.Random(f"{workload.name}/{seed}")
    planned = []
    for n, lo, hi in workload.shapes:
        while True:
            gamma = lo if lo == hi else round(rng.uniform(lo, hi), 3)
            argv = ("gen", "planted", "--n", str(n), "--gamma", repr(gamma),
                    "--seed", str(rng.randrange(2**31)))
            inst = Instance(_gen(cli, argv, workdir), gamma)
            certified = None
            if workload.relaxation == "tight":
                certified = _certified_planted_max(inst, tie_rel_tol)
                accepted = certified is not None
            else:
                accepted = workload.relaxation is None or _relaxation_untight(inst, tie_rel_tol)
            if accepted:
                break
        planned.append(Planned(argv, gamma, certified))
    return planned


def write(planned: list[Planned], cli, outdir: str) -> list[Instance]:
    """Write the planned instance files with `stablecut gen planted`."""
    return [Instance(_gen(cli, p.argv, outdir), p.gamma, p.certified_max) for p in planned]


def fingerprint(instances: list[Instance]) -> str:
    """Digest of an instance set's file names and bytes, to confirm set-up is deterministic."""
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(os.path.basename(inst.path).encode())
        with open(inst.path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()
