"""First-order deformations of a special-fiber point, for the tests.

``tangent_report(point)`` is the dimension of the space of first-order
deformations of (F, G) that satisfy the linearized closed conditions
(1)-(3).  The tests compare it with the stratum dimension at smooth points
and find it larger at the worst point.  No package code needs it.
"""

from splitmodel.errors import InvalidPoint, RingUnsupported
from splitmodel.linalg import Matrix, kernel_basis, solve_right
from splitmodel.points import ModelPoint


def _unit_vec(ring, n, i):
    v = [ring.zero] * n
    v[i] = ring.one
    return v


def tangent_report(point: ModelPoint) -> int:
    """Dimension of the space of first-order deformations of (F, G)
    satisfying the linearized closed conditions (1)-(3).

    Unknowns are maps F -> V/F and G -> V/G in the standard Grassmannian
    parametrization, so trivial reparametrizations are already quotiented
    out."""
    frame = point.frame
    field = point.ring
    if not field.is_field:
        raise RingUnsupported("tangent computation runs over field points")
    if not point.report.passes_closed_conditions():
        raise InvalidPoint("point fails the closed conditions")

    n2 = 2 * frame.n
    F = point.F_subspace()
    G = point.G_subspace()
    nF, sG = F.dim, G.dim
    compF = [c for c in range(n2) if c not in F.pivots]
    compG = [c for c in range(n2) if c not in G.pivots]
    dF, dG = len(compF), len(compG)

    f_basis = [list(row) for row in F.basis]
    g_basis = [list(row) for row in G.basis]
    t_plus, t_minus = frame.t_plus, frame.t_minus

    # unknown layout: phi[i][k] (i < nF, k < dF), then delta[a][k] (a < sG, k < dG)
    nvars = nF * dF + sG * dG

    def phi_idx(i, k):
        return i * dF + k

    def delta_idx(a, k):
        return nF * dF + a * dG + k

    rows = []

    def new_row():
        return [field.zero] * nvars

    # (2) linearized isotropy: (f_i, phi_j) + (phi_i, f_j) = 0
    gram = frame.gram_sym
    fg = [gram.apply_to_vector(f) for f in f_basis]  # gram . f_i
    for i in range(nF):
        for j in range(i, nF):
            row = new_row()
            for k, c in enumerate(compF):
                # phi_j coefficient against f_i: e_c . gram . f_i
                row[phi_idx(j, k)] = row[phi_idx(j, k)] + fg[i][c]
                row[phi_idx(i, k)] = row[phi_idx(i, k)] + fg[j][c]
            rows.append(row)

    # (3b) linearized: (t - pi) . delta_a = 0
    for a in range(sG):
        for coord in range(n2):
            row = new_row()
            for k, c in enumerate(compG):
                row[delta_idx(a, k)] = t_minus.data[coord][c]
            rows.append(row)

    # coefficients of (t + pi) f_j in the G basis, and of g_a in the F basis
    Gcols = Matrix.from_cols(field, g_basis)
    Fcols = Matrix.from_cols(field, f_basis)
    c_of = []
    for j in range(nF):
        tf = t_plus.apply_to_vector(f_basis[j])
        c_of.append(solve_right(Gcols, tf))
    u_of = []
    for a in range(sG):
        u_of.append(solve_right(Fcols, g_basis[a]))

    # (3a) linearized: (t + pi) phi_j - sum_a c_a(j) delta_a = 0 mod G
    red_tc = [G.reduce(t_plus.apply_to_vector(_unit_vec(field, n2, c)))
              for c in range(n2)]
    red_e_G = [G.reduce(_unit_vec(field, n2, c)) for c in range(n2)]
    for j in range(nF):
        for coord in range(n2):
            row = new_row()
            nontrivial = False
            for k, c in enumerate(compF):
                val = red_tc[c][coord]
                if not val.is_zero():
                    nontrivial = True
                row[phi_idx(j, k)] = val
            for a in range(sG):
                ca = c_of[j][a]
                if ca.is_zero():
                    continue
                for k, c in enumerate(compG):
                    val = ca * red_e_G[c][coord]
                    if not val.is_zero():
                        nontrivial = True
                    row[delta_idx(a, k)] = row[delta_idx(a, k)] - val
            if nontrivial:
                rows.append(row)

    # (1) linearized: delta_a - sum_j u_aj phi_j = 0 mod F
    red_e_F = [F.reduce(_unit_vec(field, n2, c)) for c in range(n2)]
    for a in range(sG):
        for coord in range(n2):
            row = new_row()
            nontrivial = False
            for k, c in enumerate(compG):
                val = red_e_F[c][coord]
                if not val.is_zero():
                    nontrivial = True
                row[delta_idx(a, k)] = val
            for j in range(nF):
                uj = u_of[a][j]
                if uj.is_zero():
                    continue
                for k, c in enumerate(compF):
                    val = uj * red_e_F[c][coord]
                    if not val.is_zero():
                        nontrivial = True
                    row[phi_idx(j, k)] = row[phi_idx(j, k)] - val
            if nontrivial:
                rows.append(row)

    if not rows:
        return nvars
    system = Matrix(field, rows, coerce=False)
    return len(kernel_basis(system))
