"""Cartan pairs: vector fields from one-sided duals of a degree-1 calculus.

Given a bimodule Q with a Q-valued derivation d, every right-linear
functional u: Q → A yields the operator û(a) = u(da).  The pair (dual, hat)
is the right Cartan pair; the left pair mirrors it with left-linear
functionals.  The map u ↦ û is the matrix H = (I_n ⊗ dᵀ)·Bᵀ on dual
coordinates (B the dual basis matrix, flattening row-major), and both
structure identities are linear in u: ``relations_hold`` checks them as 2n
sparse matrix identities in H, two per algebra basis element.  The hats are
the candidate noncommutative vector fields, and the comparison report
records which differential-operator definitions each one satisfies.
"""

from __future__ import annotations

from itertools import product

from .algebra import FiniteAlgebra
from .bimodule import Bimodule
from .derivations import derivations
from .diffops import dv_first_order, lunts_filtration
from .homspace import left_dual, right_dual
from .linalg import Matrix, kron


class CartanPair:
    def __init__(self, algebra: FiniteAlgebra, q: Bimodule, d_matrix: Matrix,
                 side: str):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        self.algebra = algebra
        self.q = q
        self.d_matrix = d_matrix
        self.side = side
        self.dual = right_dual(q) if side == "right" else left_dual(q)

    def hat(self, dual_coords) -> Matrix:
        """û = u ∘ d as an operator on the algebra."""
        return self.dual.as_map(dual_coords) @ self.d_matrix

    def hat_basis(self):
        return [u @ self.d_matrix for u in self.dual.basis_maps()]

    def relations_hold(self) -> bool:
        """The two structure identities of the pair, as 2n sparse matrix identities.

        Column r of H = (I_n ⊗ dᵀ)·Bᵀ, with B the basis matrix of the dual
        space, is vec(û_r), since vec(U·d) = (I ⊗ dᵀ)·vec(U) row-major.  For
        the right pair, with L_i the left multiplication by e_i and λ_i, ρ_i
        the left and right dual actions of e_i, each i gives

            (L_i ⊗ I)·H = H·λ_i     (e_i u)^ = e_i·û
            T_i·H = H·ρ_i           û(e_i a) = û(e_i)a + (u e_i)^(a)

        with T_i X = X·L_i − L(X e_i), that is T_i = (I ⊗ L_iᵀ) − Λ·E_i,
        where E_i reads column i of X and column m of Λ is vec(L_m).  The
        left pair is the same with R in place of L and the two dual actions
        swapped.  The first identity holds for every d: it checks the
        restricted dual action.
        """
        alg = self.algebra
        f = alg.field
        n = alg.dim
        eye = Matrix.identity(f, n)
        h = kron(eye, self.d_matrix.transpose()) @ self.dual.space.basis_matrix().transpose()
        acts = self.dual.bimodule.left, self.dual.bimodule.right
        if self.side == "right":
            mults = [alg.left_mult_basis(i) for i in range(n)]
            scaled, moved = acts
        else:
            mults = [alg.right_mult_basis(i) for i in range(n)]
            moved, scaled = acts
        lam = Matrix(f, [m.flatten() for m in mults], n * n).transpose()
        h_rows = h.row_entries()
        for i, m in enumerate(mults):
            if kron(m, eye) @ h != h @ scaled[i]:
                return False
            col_i = Matrix.from_pairs(f, [h_rows[k * n + i] for k in range(n)], h.cols)
            if kron(eye, m.transpose()) @ h - lam @ col_i != h @ moved[i]:
                return False
        return True


def build_cartan_pair(algebra: FiniteAlgebra, q: Bimodule, d_matrix: Matrix,
                      side: str = "right") -> CartanPair:
    """Check d is a Q-valued derivation, then assemble the pair."""
    der = derivations(algebra, q)
    if not der.contains(d_matrix):
        raise ValueError("the supplied map is not a derivation into Q")
    pair = CartanPair(algebra, q, d_matrix, side)
    if not pair.relations_hold():
        raise AssertionError("structure identities failed on the built pair")
    return pair


def first_order_violation_witness(algebra: FiniteAlgebra, op: Matrix):
    """First basis triple (a, b, p) where the bimodule first-order condition
    a·op(p)·b − a·op(pb) − op(ap)·b + op(apb) fails on the regular bimodule."""
    n = algebra.dim
    for i, j in product(range(n), repeat=2):
        la = algebra.left_mult_basis(i)
        rb = algebra.right_mult_basis(j)
        residual = la @ rb @ op - la @ op @ rb - rb @ op @ la + op @ la @ rb
        if not residual.is_zero():
            for k in range(n):
                col = residual.col(k)
                if any(x != 0 for x in col):
                    return {"a": i, "b": j, "p": k,
                            "residual": [algebra.field.fmt(x) for x in col]}
    return None


def cartan_vs_definitions(pair: CartanPair, lunts_order: int = 1) -> dict:
    """Membership of every hat operator in the competing definitions.

    Reports, per dual basis element: derivation? bimodule-first-order?
    inside the left inductive filtration at the stated order?  Includes a
    concrete failing triple whenever some hat violates the bimodule
    first-order condition.
    """
    alg = pair.algebra
    reg = pair.dual.hom.target
    der = derivations(alg, reg)
    dv = dv_first_order(reg, reg)
    flt = lunts_filtration(reg, reg, lunts_order, "left")
    entries = []
    witness = None
    for idx, u_hat in enumerate(pair.hat_basis()):
        flat = u_hat.flatten()
        is_der = der.space.contains(flat)
        is_dv = dv.space.contains(flat)
        in_lunts = flt[lunts_order].contains(flat)
        entries.append({
            "dual_index": idx,
            "derivation": is_der,
            "dv_first_order": is_dv,
            f"lunts_left_{lunts_order}": in_lunts,
        })
        if not is_dv and witness is None:
            witness = first_order_violation_witness(alg, u_hat)
            witness["dual_index"] = idx
    return {
        "side": pair.side,
        "dual_dim": pair.dual.dim,
        "entries": entries,
        "violation_witness": witness,
        "all_dv": all(e["dv_first_order"] for e in entries),
    }


def two_sided_hats_are_first_order(pair: CartanPair) -> bool:
    """Hats of two-sided dual elements satisfy the bimodule condition."""
    reg = pair.dual.hom.target
    dv = dv_first_order(reg, reg).space
    if dv.is_full:
        return True
    first_order = dv.to_echelon()
    both = pair.dual.hom.common_kernel("delta", "bar_delta")
    return all(first_order.contains((u @ pair.d_matrix).flatten())
               for u in pair.dual.hom.basis_maps(both))


def mirror_pair_agrees(algebra: FiniteAlgebra, q: Bimodule, d_matrix: Matrix) -> bool:
    """The left pair equals the right pair built over the opposite algebra."""
    left = CartanPair(algebra, q, d_matrix, "left")
    op = algebra.opposite()
    q_op = Bimodule(op, q.dim, q.right, q.left, q.parity, name=q.name + "^op")
    right = CartanPair(op, q_op, d_matrix, "right")
    return left.dual.space == right.dual.space
