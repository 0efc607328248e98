"""Differentially private program constructions over the aggregation core.

Three ways to release private running sums:

* baseline: one reveal per cohort, each client folding fresh Gaussian noise
  into its submission, so the j-th prefix carries noise variance ~ j*sigma^2;
* prefix tree: noise values stored on the dyadic tree nodes, each reveal
  emitting the new data plus the telescoping noise difference, so every
  prefix carries at most log-many noise terms;
* banded matrix factorization: store the data stream X, reveal the rows of
  C*X plus fresh noise for a banded lower-triangular C, and post-process
  the released stream by A*C^{-1} in the clear to estimate prefix sums.

Noise always enters through per-client Gaussian input rules, so it travels
the same aggregation pipeline as data.  Each client contributes variance
target/(n*(1-gamma)); the honest clients alone then sum to the target.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .program import REVEAL, STORE, InputRule, Instruction, Program

__all__ = [
    "per_client_std",
    "baseline_program",
    "tree_program",
    "BandedMatrix",
    "discretize_c",
    "random_banded",
    "mf_program",
    "PostProcessor",
    "dense_postprocess",
    "factor_b",
    "save_banded",
    "load_banded",
    "center_mod",
]


def per_client_std(target_variance: float, n: int, gamma: float = 0.0) -> float:
    """Stddev each of n clients contributes so honest clients sum to target.

    The 1/(1-gamma) factor inflates for the corrupt fraction whose noise
    cannot be counted towards the privacy target.
    """
    if not 0 <= gamma < 1:
        raise ValueError("gamma must be in [0, 1)")
    return math.sqrt(target_variance / (n * (1.0 - gamma)))


def center_mod(values, modulus: int) -> np.ndarray:
    """Map residues in [0, modulus) to the symmetric range around zero."""
    v = np.asarray(values, dtype=object)
    return np.where(v > modulus // 2, v - modulus, v)


# ---------------------------------------------------------------------------
# Baseline and prefix-tree programs
# ---------------------------------------------------------------------------


def baseline_program(r: int, sigma: float, ell: int = 1) -> Program:
    """r independent reveals; each client submits data plus local noise."""
    if r < 1:
        raise ValueError("need at least one round")
    rounds = [
        Instruction.make(REVEAL, InputRule.data(variance=sigma * sigma)) for _ in range(r)
    ]
    return Program(ell=ell, rounds=rounds)


def tree_program(h: int, sigma: float, ell: int = 1) -> Program:
    """Dyadic prefix-sum mechanism over 2^h data rounds (2^(h+1) instructions).

    Odd instructions store a fresh noise vector; even instruction 2i reveals
    the round-i data plus the noise delta between consecutive prefixes:
    +1 on the noise stored at 2i-1 and -1 on the noise nodes it replaces,
    at indices 2i - 2^d - 1 for d = 1..(largest power of two dividing i).
    """
    if h < 0:
        raise ValueError("tree height must be >= 0")
    noise_rule = InputRule.gauss(sigma * sigma) if sigma > 0 else InputRule.zero()
    rounds: list[Instruction] = []
    for i in range(1, 2**h + 1):
        rounds.append(Instruction.make(STORE, noise_rule))
        weights = {2 * i - 1: 1}
        hi = (i & -i).bit_length() - 1  # 2^hi is the largest power of two dividing i
        for d in range(1, hi + 1):
            weights[2 * i - 2**d - 1] = -1
        rounds.append(Instruction.make(REVEAL, InputRule.data(), weights))
    return Program(ell=ell, rounds=rounds)


# ---------------------------------------------------------------------------
# Banded matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandedMatrix:
    """Lower-triangular banded matrix with entries at fixed precision.

    scaled[i, k] holds round(C[i, k] * 2^precision_bits); entries vanish when
    i - k >= band.  The diagonal must stay nonzero so the streaming solve
    can divide by it.
    """

    scaled: np.ndarray  # int64, shape (rows, rows)
    band: int
    precision_bits: int

    @property
    def rows(self) -> int:
        return self.scaled.shape[0]

    def real(self) -> np.ndarray:
        return self.scaled.astype(np.float64) / float(2**self.precision_bits)

    def exact(self) -> list[list[Fraction]]:
        s = 2**self.precision_bits
        return [[Fraction(int(v), s) for v in row] for row in self.scaled]

    def __post_init__(self):
        s = self.scaled
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("matrix must be square")
        if np.any(np.triu(s, 1) != 0):
            raise ValueError("matrix must be lower triangular")
        r = s.shape[0]
        for i in range(r):
            for k in range(i + 1):
                if i - k >= self.band and s[i, k] != 0:
                    raise ValueError(f"entry ({i},{k}) outside band {self.band}")
        if np.any(np.diag(s) == 0):
            raise ValueError("diagonal entries must be nonzero")


def discretize_c(c_real: np.ndarray, precision_bits: int, band: int | None = None) -> BandedMatrix:
    """Round entries toward zero at scale 2^p; never increases the Frobenius norm."""
    c = np.asarray(c_real, dtype=np.float64)
    if band is None:
        nz = [i - k for i in range(c.shape[0]) for k in range(i + 1) if c[i, k] != 0]
        band = (max(nz) + 1) if nz else 1
    scaled = np.trunc(c * float(2**precision_bits)).astype(np.int64)
    return BandedMatrix(scaled=scaled, band=band, precision_bits=precision_bits)


def random_banded(rows: int, band: int, precision_bits: int, rng: np.random.Generator) -> BandedMatrix:
    """Random banded Toeplitz factor, normalized to Frobenius norm <= 1.

    Diagonal coefficient 1 with geometrically decaying subdiagonals before
    normalization, which keeps every diagonal entry well away from zero at
    reasonable precisions.
    """
    coefs = np.zeros(band)
    coefs[0] = 1.0
    for j in range(1, min(band, rows)):
        coefs[j] = rng.uniform(0.1, 0.9) * coefs[j - 1]
    c = np.zeros((rows, rows))
    for i in range(rows):
        for j in range(min(band, i + 1)):
            c[i, i - j] = coefs[j]
    c /= np.linalg.norm(c)
    return discretize_c(c, precision_bits, band=band)


def save_banded(m: BandedMatrix, path: str | Path) -> None:
    """CSV: header rows,band,precision_bits then the in-band scaled entries."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rows", "band", "precision_bits"])
        w.writerow([m.rows, m.band, m.precision_bits])
        for i in range(m.rows):
            lo = max(0, i - m.band + 1)
            w.writerow([int(v) for v in m.scaled[i, lo : i + 1]])


def load_banded(path: str | Path) -> BandedMatrix:
    with open(path, newline="") as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        if header[:3] != ["rows", "band", "precision_bits"]:
            raise ValueError("missing banded-matrix header")
        rows, band, p = (int(v) for v in next(rdr))
        scaled = np.zeros((rows, rows), dtype=np.int64)
        for i in range(rows):
            vals = [int(v) for v in next(rdr)]
            lo = max(0, i - band + 1)
            scaled[i, lo : lo + len(vals)] = vals
    return BandedMatrix(scaled=scaled, band=band, precision_bits=p)


# ---------------------------------------------------------------------------
# Matrix-factorization program and post-processing
# ---------------------------------------------------------------------------


def mf_program(c: BandedMatrix, sigma: float, ell: int = 1) -> Program:
    """Store data on odd rounds; even round 2i reveals row i of C applied to
    the stored stream plus fresh cohort noise.

    Weights are the scaled integer entries, so the released stream is
    2^p * (C X)_i + noise; the post-processor divides the scale back out.
    The noise rule therefore uses stddev sigma * 2^p, which de-scales to
    sigma per release.
    """
    rounds: list[Instruction] = []
    scale = float(2**c.precision_bits)
    noise_rule = InputRule.gauss((sigma * scale) ** 2) if sigma > 0 else InputRule.zero()
    for i in range(1, c.rows + 1):
        rounds.append(Instruction.make(STORE, InputRule.data()))
        weights = {}
        for k in range(max(1, i - c.band + 1), i + 1):
            v = int(c.scaled[i - 1, k - 1])
            if v:
                weights[2 * k - 1] = v
        rounds.append(Instruction.make(REVEAL, noise_rule, weights))
    return Program(ell=ell, rounds=rounds)


class PostProcessor:
    """Streaming application of B = A * C^{-1} to the released stream.

    Feed the centered releases of an mf_program run in order; each push
    returns the current prefix-sum estimate (A X + B eta)_i.  Forward
    substitution against the banded C needs only the last band-1 solved
    vectors, so at most `band` vectors are retained at any point.
    """

    def __init__(self, c: BandedMatrix):
        self.c = c
        self._creal = c.real()
        self._scale = float(2**c.precision_bits)
        self._recent: deque[np.ndarray] = deque(maxlen=max(c.band - 1, 0))
        self._running: np.ndarray | None = None
        self._i = 0

    @property
    def buffered_vectors(self) -> int:
        return len(self._recent) + (self._running is not None)

    def push(self, released) -> np.ndarray:
        """Consume release i (scaled integers or floats), return estimate i."""
        if self._i >= self.c.rows:
            raise ValueError("stream longer than the factor matrix")
        y = np.asarray(released, dtype=np.float64) / self._scale
        i = self._i
        acc = y
        for j, prev in enumerate(reversed(self._recent), start=1):
            k = i - j
            if k < 0:
                break
            coef = self._creal[i, k]
            if coef:
                acc = acc - coef * prev
        solved = acc / self._creal[i, i]
        self._recent.append(solved)
        self._running = solved.copy() if self._running is None else self._running + solved
        self._i += 1
        return self._running.copy()


def factor_b(c: BandedMatrix, exact: bool = False):
    """Dense B = A * C^{-1}; exact rational arithmetic when requested."""
    r = c.rows
    if exact:
        ce = c.exact()
        # Solve C Y = I column by column, then prefix-sum the rows (A).
        yinv = [[Fraction(0)] * r for _ in range(r)]
        for col in range(r):
            for i in range(r):
                s = Fraction(1) if i == col else Fraction(0)
                for k in range(max(0, i - c.band + 1), i):
                    s -= ce[i][k] * yinv[k][col]
                yinv[i][col] = s / ce[i][i]
        b = [[Fraction(0)] * r for _ in range(r)]
        run = [Fraction(0)] * r
        for i in range(r):
            run = [a + b_ for a, b_ in zip(run, yinv[i])]
            b[i] = list(run)
        return b
    a = np.tril(np.ones((r, r)))
    return a @ np.linalg.inv(c.real())


def dense_postprocess(c: BandedMatrix, released: np.ndarray) -> np.ndarray:
    """Reference computation B @ (released / 2^p) for the whole stream."""
    y = np.asarray(released, dtype=np.float64) / float(2**c.precision_bits)
    return factor_b(c) @ y
