"""Numerical streamline integration.

Implements the integration scheme the paper uses — "an integration scheme of
Runge-Kutta type with adaptive stepsize control as proposed by Dormand and
Prince" — as a *batched* integrator: all particles resident in one block on
one rank advance together through vectorized stage evaluations, which is the
NumPy-idiomatic equivalent of the tight C++ inner loop in VisIt.

Public surface
--------------
``Streamline``        one integral curve: state, status, geometry
``Status``            termination reasons
``IntegratorConfig``  tolerances, step bounds, termination thresholds
``Dopri5``            adaptive Dormand-Prince RK5(4)
``RK4``, ``Euler``    fixed-step baselines
``BlockPool``         the loaded blocks one advance call may sample
``advance_pool``      advance streamlines to the edge of a block pool
``PoolResult``        outcome of one ``advance_pool`` call
``integrate_single``  convenience serial integration across blocks
"""

from repro.integrate.streamline import Status, Streamline
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5
from repro.integrate.fixed import Euler, RK4
from repro.integrate.pooled import BlockPool, PoolResult, advance_pool
from repro.integrate.single import integrate_single

__all__ = [
    "BlockPool",
    "Dopri5",
    "Euler",
    "IntegratorConfig",
    "PoolResult",
    "RK4",
    "Status",
    "Streamline",
    "advance_pool",
    "integrate_single",
]
