"""LQR versus sliding mode on both platforms, side by side.

Runs a matched stabilization experiment for each platform and controller
kind: the pole starts 0.05 rad off upright and the loop has 10 s to bring
it back. The closing table shows the tradeoff the two designs make, the
quadratic regulator spends less actuation and stays smooth while the
switching controller chatters but carries a built-in robustness argument.
"""

from pendulum_ctl.metrics import comparison_report, compute_metrics
from pendulum_ctl.plants import default_params
from pendulum_ctl.simulate import SimConfig, simulate
from pendulum_ctl.synthesis import DEFAULT_TS, nominal_lqr, nominal_smc

runs = []
for platform in ("rotpen", "nxtway"):
    params = default_params(platform)

    cfg = SimConfig(duration=10.0, controller_Ts=DEFAULT_TS[platform],
                    x0=(0.0, 0.05, 0.0, 0.0))
    # one quadratic design and one sliding-mode design per platform, each
    # at the platform's default weights and controller period; the
    # two-wheeled robot gets integral action on the wheel angle
    for name, design in (("lqr", nominal_lqr(params)), ("smc", nominal_smc(params))):
        trace = simulate(params, design, cfg)
        metrics = compute_metrics(trace, V_max=params.V_max)
        runs.append((f"{platform} {name}", metrics))
        print(f"{platform} {name}: quality {metrics.stabilization_quality}, "
              f"peak drive {metrics.u_inf:.2f} V "
              f"({metrics.u_pct_max:.1f}% of the limit)")

print()
print(comparison_report(runs))
