"""The fault-detection pipeline on a synthetic linear system.

A nominal (healthy) model predicts the output from the input; residuals
against it carry the signature of any drift in the true input-output map.
The residual information value (RIV) is the estimated mutual information
between input and residual: zero for a healthy system, positive under
drift, and thresholded at a_n for the detection decision.
"""

from rivkit import Schedule, SystemSpec, nominal_model, residuals, rif, riv, sample_forward

schedule = Schedule()
n = 2000
threshold = schedule.a(n)
print(f"decision threshold a_n at n={n}: {threshold:.4f}")
print()

for delta in ((0.0, 0.0), (0.05, 0.05), (0.15, 0.15)):
    spec = SystemSpec("linear", delta, seed=1)
    sample = sample_forward(spec, n)
    model = nominal_model(spec)  # the drift-free map y = 0.6*u - 0.4*s

    residual = residuals(sample, model).response  # the joint sample's residual block
    report = riv(sample, model, schedule)
    decision = "DRIFT DETECTED" if report.emi >= threshold else "healthy"
    print(f"delta={delta}:")
    print(f"  residual mean {residual.mean():+.4f}, residual std {residual.std():.4f}")
    print(f"  riv={report.emi:.4f}  ({decision})")

print()
print("per-coordinate features localize which input drives the drift")
print("(polynomial system, drift only on the first coefficient):")
spec = SystemSpec("polynomial", (0.15, 0.0), seed=1)
sample = sample_forward(spec, n)
features = rif(sample, nominal_model(spec), schedule)
print(f"  rif = {features}  (first entry reacts, second stays at zero)")
