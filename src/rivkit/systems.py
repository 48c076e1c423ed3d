"""Seeded generators for the six synthetic additive-noise benchmark systems.

Forward families (inputs x = (u, s) with u ~ Uniform[a_u, b_u] and
s ~ Normal(mu_s, sigma_s^2), output y = eta(x) + h(w)):

    linear          (c1+d1)*u + (c2+d2)*s                     h(w) = k*w
    polynomial      (c1+d1)*u**2 + (c2+d2)*s**3               h(w) = k*w
    trigonometric   (A+d1)*sin(u*s + phi + d2)                h(w) = A_w*sin(f_w*w + phi_w)
    mlp             two-hidden-unit LeakyReLU network         h(w) = w

Autoregressive families (state D_j = eta(D_{j-1}, U_j) + H_j, observed
Y_j = D_j + W_j, emitted input rows (Y_{j-1}, U_j)):

    arx             (c1+d1)*d + (c2+d2)*u
    narx            (c3+d1+c4*exp(-d^2))*d + (c5+d2)*u^2

The drift (d1, d2) perturbs the named coefficients; (0, 0) is the nominal
system. The mlp drift perturbs the two input weights of the first hidden
unit. Each noise source draws from its own seeded substream, so forcing one
stream in a test never shifts the others. AR rows are not i.i.d.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np

from .pipeline import NominalModel, residuals
from .samples import JointSample

FORWARD_FAMILIES = ("linear", "polynomial", "trigonometric", "mlp")
AR_FAMILIES = ("arx", "narx")
FAMILIES = FORWARD_FAMILIES + AR_FAMILIES

COEFFICIENTS: Dict[str, float] = {
    "a_u": -2.0,
    "b_u": 2.0,
    "mu_s": 0.5,
    "sigma_s": 2.0 * math.sqrt(3.0) / 3.0,
    "mu_h": 0.0,
    "sigma_h": 0.1,
    "a_w": -0.1,
    "b_w": 0.1,
    "c1": 0.6,
    "c2": -0.4,
    "c3": 0.8,
    "c4": -0.5,
    "c5": 1.0,
    "amp": 1.0,
    "phi": 0.0,
    "d0": 0.0,
    "k": 1.0,
    "a_noise": 1.5,
    "f_noise": 1.0,
    "phi_noise": 0.0,
}

# Fixed nominal parameters of the mlp family, never mutated.
MLP_W_IN = np.array([[-0.66612, -0.13874], [-0.33963, -0.18860]])
MLP_B_IN = np.array([-0.62466, 0.28375])
MLP_W_HIDDEN = np.array([-0.63385, -0.04506])
MLP_B_HIDDEN = 0.24580
LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system: family, drift and seed."""

    family: str
    delta: Tuple[float, float] = (0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        delta = tuple(float(v) for v in self.delta)
        if len(delta) != 2:
            raise ValueError(f"delta must have 2 entries, got {len(delta)}")
        if not all(math.isfinite(v) for v in delta):
            raise ValueError("delta must be finite")
        object.__setattr__(self, "seed", operator.index(self.seed))  # a float seed is refused
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "delta", delta)

    @property
    def is_autoregressive(self) -> bool:
        return self.family in AR_FAMILIES

    def nominal(self) -> "SystemSpec":
        return replace(self, delta=(0.0, 0.0))


def _leaky_relu(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0, v, LEAKY_SLOPE * v)


def eta_values(spec: SystemSpec, x: np.ndarray) -> np.ndarray:
    """Underlying model, (m,) outputs of (m, 2) inputs: (u, s) forward, (d, u) AR."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != 2:
        raise ValueError(f"inputs must have 2 coordinates, got {x.shape[1]}")
    c = COEFFICIENTS
    d1, d2 = spec.delta
    x1, x2 = x[:, 0], x[:, 1]
    if spec.family in ("linear", "arx"):
        return (c["c1"] + d1) * x1 + (c["c2"] + d2) * x2
    if spec.family == "polynomial":
        return (c["c1"] + d1) * x1**2 + (c["c2"] + d2) * x2**3
    if spec.family == "trigonometric":
        return (c["amp"] + d1) * np.sin(x1 * x2 + c["phi"] + d2)
    if spec.family == "mlp":
        drift = np.array([[d1, d2], [0.0, 0.0]])
        pre = x @ (MLP_W_IN + drift).T + MLP_B_IN
        return _leaky_relu(pre) @ MLP_W_HIDDEN + MLP_B_HIDDEN
    # narx: x1 is the lagged state, x2 the exogenous input
    return (c["c3"] + d1 + c["c4"] * np.exp(-(x1**2))) * x1 + (c["c5"] + d2) * x2**2


def noise_values(spec: SystemSpec, w: np.ndarray) -> np.ndarray:
    """Forward-family measurement noise h(w)."""
    c = COEFFICIENTS
    w = np.asarray(w, dtype=np.float64)
    if spec.family in ("linear", "polynomial"):
        return c["k"] * w
    if spec.family == "trigonometric":
        return c["a_noise"] * np.sin(c["f_noise"] * w + c["phi_noise"])
    if spec.family == "mlp":
        return w
    raise ValueError(f"{spec.family!r} has no forward noise map")


def _streams(seed: int, *sources: int) -> Tuple[np.random.Generator, ...]:
    """Independent substreams of the seed, one per named noise source.

    The sources (u, s, h, w) take children 0-3 of the seed. Child i is built
    as ``SeedSequence(seed, spawn_key=(i,))``, which equals
    ``SeedSequence(seed).spawn(4)[i]``.
    """
    return tuple(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
                 for i in sources)


def forward_response(spec: SystemSpec, u: np.ndarray, s: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Outputs of a forward system for explicit input and noise draws."""
    if spec.family not in FORWARD_FAMILIES:
        raise ValueError(f"{spec.family!r} is not a forward family")
    x = np.column_stack([u, s])
    return eta_values(spec, x) + noise_values(spec, w)


def ar_path(spec: SystemSpec, u: np.ndarray, h: np.ndarray,
            w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """States D and observations Y of an AR system for explicit draws.

    D_0 = d0 and W_0 = 0, so the first emitted input row sees Y_0 = d0.
    ``u``, ``h`` and ``w`` must be 1-D and of equal length.

    The recurrence runs on Python floats with the drifted coefficients
    hoisted, and repeats the AR lines of ``eta_values`` operation for
    operation: the same association order, squares written ``x*x`` (as
    numpy computes ``x**2``), and ``exp`` taken from numpy, whose kernel can
    round differently from ``math.exp``. So every state equals
    ``eta_values(spec, [[D_{j-1}, U_j]])[0] + H_j`` to the bit.
    """
    if spec.family not in AR_FAMILIES:
        raise ValueError(f"{spec.family!r} is not an autoregressive family")
    u, h, w = (np.asarray(v, dtype=np.float64) for v in (u, h, w))
    if not u.ndim == h.ndim == w.ndim == 1:
        raise ValueError(f"u, h and w must be 1-D, got {u.ndim}, {h.ndim} and {w.ndim} dimensions")
    if not len(u) == len(h) == len(w):
        raise ValueError(f"u, h and w must have equal lengths, "
                         f"got {len(u)}, {len(h)} and {len(w)}")
    c = COEFFICIENTS
    d1, d2 = spec.delta
    state = float(c["d0"])
    states = []
    if spec.family == "arx":
        a, b = c["c1"] + d1, c["c2"] + d2
        for u_j, h_j in zip(u.tolist(), h.tolist()):
            state = (a * state + b * u_j) + h_j
            states.append(state)
    else:
        a, k, b = c["c3"] + d1, c["c4"], c["c5"] + d2
        exp = np.exp
        for u_j, h_j in zip(u.tolist(), h.tolist()):
            e = float(exp(-(state * state)))
            state = ((a + k * e) * state + b * (u_j * u_j)) + h_j
            states.append(state)
    d = np.array(states, dtype=np.float64)
    return d, d + w


def sample_system(spec: SystemSpec, n: int) -> JointSample:
    """n rows of the family's system, replayable from the seed: (u, s, y)
    forward, i.i.d., and (y_prev, u, y) autoregressive, not i.i.d. The one
    place a system is drawn.

    An AR row pairs the noisy previous observation with the exogenous input;
    the first row's y_prev is Y_0 = d0. A larger n extends the smaller
    sample (prefix property), because every noise substream draws
    sequentially.
    """
    n = operator.index(n)  # numpy ints pass, floats do not
    if n < 1:
        raise ValueError("n must be at least 1")
    c = COEFFICIENTS
    ar = spec.is_autoregressive
    rng_u, rng_w, rng_hs = _streams(spec.seed, 0, 3, 2 if ar else 1)  # u, w, then h or s
    u = rng_u.uniform(c["a_u"], c["b_u"], n)
    w = rng_w.uniform(c["a_w"], c["b_w"], n)
    if ar:
        _, y = ar_path(spec, u, rng_hs.normal(c["mu_h"], c["sigma_h"], n), w)
        columns = [np.concatenate([[c["d0"]], y[:-1]]), u, y]
    else:
        s = rng_hs.normal(c["mu_s"], c["sigma_s"], n)
        columns = [u, s, forward_response(spec, u, s, w)]
    return JointSample(np.column_stack(columns), p=2, q=1)


def nominal_model(spec: SystemSpec) -> NominalModel:
    """The drift-free underlying model as a pipeline evaluator."""
    return NominalModel(functools.partial(eta_values, spec.nominal()), "synthetic_eta")


def sample_residuals(spec: SystemSpec, n: int) -> JointSample:
    """n joint (input, residual) rows of the system against its nominal model."""
    return residuals(sample_system(spec, n), nominal_model(spec))


def describe_eta(spec: SystemSpec) -> str:
    """Human-readable nominal-model identity with coefficients filled in."""
    return {
        "linear": "eta(u, s) = {c1}*u + {c2}*s",
        "polynomial": "eta(u, s) = {c1}*u^2 + {c2}*s^3",
        "trigonometric": "eta(u, s) = {amp}*sin(u*s + {phi})",
        "mlp": "eta(x) = w_hidden . leaky_relu(W_in x + b_in) + b_hidden",
        "arx": "eta(d, u) = {c1}*d + {c2}*u",
        "narx": "eta(d, u) = ({c3} + {c4}*exp(-d^2))*d + {c5}*u^2",
    }[spec.family].format(**COEFFICIENTS)
