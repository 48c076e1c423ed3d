"""The six synthetic benchmark families and their exact residual structure.

Forward systems pair an exogenous input (u, s) with output eta(u, s) plus
bounded noise; autoregressive systems evolve a hidden state and emit the
noisy observation paired with the lagged observation. With explicit noise
draws the residual decompositions can be checked to machine precision.
"""

import numpy as np

from rivkit import SystemSpec, eta_values, sample_ar, sample_forward
from rivkit.systems import ar_path, describe_eta, forward_response

print("nominal models:")
for family in ("linear", "polynomial", "trigonometric", "mlp", "arx", "narx"):
    print(f"  {family:14s} {describe_eta(SystemSpec(family))}")

print()
print("a few point evaluations:")
print(f"  linear(1, 1)  = {eta_values(SystemSpec('linear'), [[1.0, 1.0]])[0]:.4f}")
print(f"  mlp(0, 0)     = {eta_values(SystemSpec('mlp'), [[0.0, 0.0]])[0]:.5f}")
print(f"  narx(0.5, 1.) = {eta_values(SystemSpec('narx'), [[0.5, 1.0]])[0]:.5f}")

print()
print("drifted linear residual decomposes exactly as d1*u + d2*s + k*w:")
rng = np.random.default_rng(0)
u = rng.uniform(-2, 2, 5)
s = rng.normal(0.5, 2 * np.sqrt(3) / 3, 5)
w = rng.uniform(-0.1, 0.1, 5)
spec = SystemSpec("linear", (0.1, -0.05))
y = forward_response(spec, u, s, w)
residual = y - eta_values(spec.nominal(), np.column_stack([u, s]))
print(f"  residual      {np.round(residual, 6)}")
print(f"  decomposition {np.round(0.1 * u - 0.05 * s + w, 6)}")

print()
print("the arx state recurrence with silenced noise, unit input:")
states, _ = ar_path(SystemSpec("arx"), u=np.ones(4), h=np.zeros(4), w=np.zeros(4))
print(f"  d_j = 0.6*d_(j-1) - 0.4  ->  {states}")

print()
print("sampling is seeded and replayable; ar rows pair (y_prev, u) with y:")
sample = sample_ar(SystemSpec("narx", (0.0, 0.1), seed=5), 4)
print(sample.data)
again = sample_forward(SystemSpec("trigonometric", seed=9), 3)
print("trigonometric draw, replayed identically:",
      np.array_equal(again.data, sample_forward(SystemSpec("trigonometric", seed=9), 3).data))
