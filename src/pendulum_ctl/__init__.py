"""Control toolkit for two inverted-pendulum platforms.

The package models a rotary inverted pendulum (RotPen) and a two-wheeled
self-balancing robot (NxtWay), linearizes their Euler-Lagrange dynamics,
synthesizes LQR and discrete sliding-mode controllers, and evaluates the
closed loops in simulation.

Modules
-------
plants     : physical parameters and nonlinear dynamics
linearize  : state-space models (numeric Jacobian, closed forms, ZOH)
synthesis  : LQR via the continuous Riccati equation, discrete SMC design
matrixfile : the plain-text matrix file format of models and designs, and
             write_whole, which publishes every output file whole
simulate   : closed-loop RK4 simulation with disturbance injection
metrics    : quality indices and comparison reports
cli        : command-line front end (`pendulum-ctl`)
"""

__version__ = "0.1.0"
