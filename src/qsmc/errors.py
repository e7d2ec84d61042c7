"""Exception taxonomy shared across modules.

The CLI maps these onto its stable exit codes: configuration or parse
problems -> 2, violated structural assumptions -> 3, numerical divergence
during simulation -> 4.
"""


class ConfigError(ValueError):
    """Bad user input: file syntax, inconsistent parameters, bad ranges."""


class AssumptionViolation(RuntimeError):
    """A structural requirement of the design does not hold (e.g. the
    surface-to-input coupling is singular)."""


class DivergenceError(RuntimeError):
    """Closed-loop state escaped the overflow guard.  rho_cl is the spectral
    radius of the diverging run's closed loop, the figure a sweep gates on;
    the message does not show it."""

    def __init__(self, step: int, norm: float, run: int | None = None,
                 rho_cl: float | None = None):
        where = "" if run is None else f" in run {run}"
        super().__init__(f"state norm {norm:.3e} exceeded guard at step {step}{where}")
        self.step = step
        self.norm = norm
        self.run = run
        self.rho_cl = rho_cl


class DisturbanceRangeError(ConfigError):
    """Disturbance evaluated outside its defined time range (a scenario
    whose disturbance does not cover its horizon)."""
