"""Tour of the plant models: dynamics, linearization, discretization.

Walks both platforms from their nonlinear equations of motion to the
linear state-space models used for synthesis, cross-checks the closed
forms against a numeric Jacobian, and shows why a controller is needed
at all (the upright equilibrium is open-loop unstable on both).
"""

import numpy as np

from pendulum_ctl.linearize import closed_form, discretize_zoh, jacobian_linearize
from pendulum_ctl.plants import default_params, forward_dynamics
from pendulum_ctl.synthesis import DEFAULT_TS, nominal_lqr, stability_report

np.set_printoptions(precision=4, suppress=True)

for platform in ("rotpen", "nxtway"):
    params = default_params(platform)
    print(f"=== {platform} ===")

    # the nonlinear model: accelerations at a small pole offset, no drive
    x = [0.0, 0.05, 0.0, 0.0]
    qdd = forward_dynamics(params, x, 0.0)
    print(f"accelerations at q2 = 0.05 rad, v = 0: {qdd}")

    # closed-form linearization about the upright equilibrium, verified
    # against a central-difference Jacobian of the nonlinear model
    ss = closed_form(params)
    num = jacobian_linearize(params)
    print("A =")
    print(ss.A)
    print(f"max |closed form - numeric| = {np.abs(ss.A - num.A).max():.2e}")

    # both platforms are unstable without feedback
    eigs = np.linalg.eigvals(ss.A)
    print(f"open-loop eigenvalues: {np.sort(eigs.real)}")
    print(f"unstable mode at Re = {eigs.real.max():.3f}")

    # a zero-order-hold model at the controller rate
    Ts = DEFAULT_TS[platform]
    dss = discretize_zoh(ss, Ts)
    print(f"ZOH at Ts = {Ts} s: max |eig(Ad)| = "
          f"{np.max(np.abs(np.linalg.eigvals(dss.A))):.4f} (> 1, unstable)")
    print()

# closing the loop moves every eigenvalue into the left half plane
params = default_params("rotpen")
design = nominal_lqr(params)
print("rotpen LQR gain:", design.K[0])
print(stability_report(closed_form(params), design.K))
