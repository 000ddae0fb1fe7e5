"""Fit a cure-mixture survival sample and inspect every one-sample estimate.

Simulates right-censored data with a 30% cure fraction, then walks through
the building blocks: the two Kaplan-Meier curves, the adjusted risk table,
the tail cure-rate estimate, the latency survival curve in its three
equivalent forms, and the self-consistency check.
"""

import numpy as np

import curetau as ct

scenario = ct.Scenario(latency=ct.BetaLatency(1, 3), eta=0.3, c_max=1.0, n=300)
sample = ct.draw_sample(scenario, seed=42)
print(f"drew {sample.n} subjects, {sample.n_events} events "
      f"({1 - sample.n_events / sample.n:.1%} censored)")

survival = ct.km_fit(sample, "event")
censoring = ct.km_fit(sample, "censoring")
table = ct.risk_table(sample)
print(f"{table.k} distinct event times; last one at {table.last_event_time:.3f}")
print(f"adjusted susceptible sample size: {table.n_a_hat:.1f} of {sample.n}")

eta = ct.eta_tail(survival)
print(f"\ntail cure-rate estimate: {eta.value:.3f} (truth 0.3)")

fit = ct.susceptible_curve(sample, eta)
print(f"three latency forms agree to {fit.form_divergence:.2e}")

grid = np.array([0.1, 0.2, 0.3, 0.5, 0.7])
print("\n  t    S(t)  S_a(t)  truth")
for t in grid:
    print(f"{t:5.2f} {survival(t):6.3f} {fit.curve(t):6.3f} "
          f"{scenario.latency.sf(t):6.3f}")

candidate = ct.product_limit_latency_curve(table)
report = ct.self_consistency_residual(candidate, sample, eta)
print(f"\nself-consistency residual of the product-limit form: "
      f"{report.max_residual:.2e}")

boot = ct.bootstrap_stats(sample, lambda s: ct.eta_tail_from_sample(s).value,
                          R=500, seed=7)
low, high = ct.normal_interval(boot.point, boot.sd, 0.95)
print(f"cure rate 95% CI via {boot.R} bootstrap resamples: "
      f"({low:.3f}, {high:.3f})")
