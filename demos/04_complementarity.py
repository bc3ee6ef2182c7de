"""
Tensor complementarity with solution certificates
=================================================

Find x >= 0 with w = q + A x^(m-1) >= 0 and x.w = 0.  For strict-class
tensors a solution always exists and the solution set is bounded; every
nonzero solution moreover obeys closed-form lower bounds driven by the
negative part of q and the diagonal entries.
"""
import numpy as np

from btensor import (
    TcpInstance,
    Tensor,
    boundedness_probe,
    load_example,
    tcp_residual,
    tcp_solve,
    verify_solution_bounds,
)

# Diagonal tensors decouple into scalar problems with a closed form.
diag = Tensor.diagonal_tensor(4, 3)
outcome = tcp_solve(TcpInstance(diag, np.array([-8.0, 1.0, -27.0])))
print("diagonal instance solution:", outcome.x, "(expected (2, 0, 3))")

# The bundled example with a fully negative q.
ex41 = load_example("ex41")
q = np.array([-1.0, -1.0, -1.0])
outcome = tcp_solve(TcpInstance(ex41, q))
print(f"\nex41 solve: x = {outcome.x.round(6)}, residual {outcome.residual:.2e}, "
      f"starts used {outcome.starts_used}")

# The certificate bounds norm(x)^(m-1) from below for any nonzero solution.
certificate = verify_solution_bounds(ex41, q, outcome)
print("lower bounds (inf, 2, m):", certificate.lb_inf, round(certificate.lb_2, 6),
      round(certificate.lb_m, 6))
print("bounds hold at the solver output:", certificate.holds)

# Scaling q by t scales solutions by t^(1/(m-1)).
for t in (4.0, 9.0):
    scaled = t ** (1.0 / 3.0) * outcome.x
    res, _ = tcp_residual(TcpInstance(ex41, t * q), scaled)
    print(f"q scaled by {t:g}: rescaled x residual {res:.2e}")

# Boundedness probe: growing the start radius does not grow the solution set.
print("\nsolution set bounded (radii 1, 10, 100):",
      boundedness_probe(ex41, q))

# q >= 0 always has the trivial solution.
print("q >= 0 gives x = 0:", tcp_solve(TcpInstance(ex41, np.array([0.5, 1.0, 0.0]))).x)
