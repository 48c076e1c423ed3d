"""Decision schemes over growing samples, collapse times, and error rates.

A decision scheme applies the thresholded rule at every checkpoint of a
growing sample. The collapse time is the last checkpoint that still decides
wrongly; healthy systems settle to the accept decision quickly, and the
Monte Carlo error rates show the significance/power trade-off directly.
"""

from rivkit import (
    Schedule,
    SystemSpec,
    collapse_time,
    detection_curve,
    estimate_error_rate,
    run_scheme,
    sample_residuals,
)

schedule = Schedule()
checkpoints = [250, 500, 1000, 2000, 4000]

for delta, label in (((0.0, 0.0), "healthy"), ((0.15, 0.15), "drifted")):
    print(f"{label} linear system, decisions along {checkpoints}:")
    for seed in range(3):
        sample = sample_residuals(SystemSpec("linear", delta, seed=seed), checkpoints[-1])
        trace = run_scheme(sample, schedule, checkpoints)
        bits = [d.value for d in trace.decisions]
        target = 0 if label == "healthy" else 1
        print(f"  seed {seed}: decisions {bits}, "
              f"collapse time to {target}: {collapse_time(trace, target)}")
    print()

print("rejection fraction over seeds as the sample grows:")
for delta in ((0.0, 0.0), (0.15, 0.15)):
    curve = detection_curve(SystemSpec("linear", delta), schedule,
                            [500, 1000, 2000, 4000], seeds=range(10))
    print(f"  delta={delta}: " + "  ".join(f"n={n}:{rate:.1f}" for n, rate in curve))

print()
print("Monte Carlo error rates at n=2000 (50 trials each):")
significance = estimate_error_rate(SystemSpec("linear", (0.0, 0.0), seed=0),
                                   schedule, 2000, 50)
power = estimate_error_rate(SystemSpec("linear", (0.15, 0.15), seed=0),
                            schedule, 2000, 50)
print(f"  significance level (false alarms): {significance.rate:.3f}")
print(f"  power (correct detections):        {power.rate:.3f}")
