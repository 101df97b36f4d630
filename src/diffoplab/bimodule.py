"""Two-sided modules over a FiniteAlgebra via left/right action matrices.

A bimodule stores one m×m action matrix per algebra basis element on each
side.  The second family normally obeys the right-action law; ambients like
A ⊗ P carry two commuting *left* structures instead, which is recorded in
``second_kind`` so validation checks the law actually promised.
"""

from __future__ import annotations

import json
from itertools import product

from .algebra import FiniteAlgebra
from .fields import Field
from .linalg import Matrix, kron


class ModuleError(ValueError):
    pass


class Bimodule:
    """Finite-dimensional two-sided module given by action matrices."""

    def __init__(self, algebra: FiniteAlgebra, dim: int, left, right,
                 parity=None, second_kind: str = "right", name: str = "module"):
        if second_kind not in ("right", "left_bullet"):
            raise ModuleError(f"unknown second action kind {second_kind!r}")
        self.algebra = algebra
        self.dim = dim
        self.left = list(left)
        self.right = list(right)
        self.parity = None if parity is None else tuple(int(p) % 2 for p in parity)
        self.second_kind = second_kind
        self.name = name
        # target id -> HomSpace(self, target), filled by HomSpace.between
        self.hom_spaces = {}
        n = algebra.dim
        if len(self.left) != n or len(self.right) != n:
            raise ModuleError("need one action matrix per algebra basis element")
        for m in self.left + self.right:
            if m.rows != dim or m.cols != dim:
                raise ModuleError("action matrix shape mismatch")

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def graded(self) -> bool:
        return self.parity is not None

    def zero_vector(self):
        return [self.field.zero()] * self.dim

    def basis_vector(self, i: int):
        v = self.zero_vector()
        v[i] = self.field.one()
        return v

    def left_action(self, coords) -> Matrix:
        return Matrix.combination(self.left, coords)

    def right_action(self, coords) -> Matrix:
        return Matrix.combination(self.right, coords)

    # -- validation -----------------------------------------------------------

    def validate(self) -> "ModuleReport":
        rep = ModuleReport()
        alg = self.algebra
        n = alg.dim
        unit_left = self.left_action(alg.unit)
        if unit_left != Matrix.identity(self.field, self.dim):
            rep.fail("left_unit", None)
        unit_right = self.right_action(alg.unit)
        if unit_right != Matrix.identity(self.field, self.dim):
            rep.fail("second_unit", None)
        for i, j in product(range(n), repeat=2):
            prod_ij = self.left_action(alg.sc[i][j])
            if self.left[i] @ self.left[j] != prod_ij:
                rep.fail("left_action_law", {"i": i, "j": j})
            prod2 = self.right_action(alg.sc[i][j])
            if self.second_kind == "right":
                # (p a) b = p (ab)  ⇒  R(e_i) R(e_j) = R(e_j e_i)
                if self.right[j] @ self.right[i] != prod2:
                    rep.fail("right_action_law", {"i": i, "j": j})
            else:
                if self.right[i] @ self.right[j] != prod2:
                    rep.fail("bullet_action_law", {"i": i, "j": j})
            if self.left[i] @ self.right[j] != self.right[j] @ self.left[i]:
                rep.fail("actions_commute", {"i": i, "j": j})
        if self.graded:
            if len(self.parity) != self.dim:
                rep.fail("parity_length", None)
        return rep

    def is_central(self) -> bool:
        """Left and right actions agree on the center of the algebra."""
        for z in self.algebra.center().basis:
            if self.left_action(list(z)) != self.right_action(list(z)):
                return False
        return True

    # -- JSON spec format ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        f = self.field

        def sparse(mats):
            return [[i, r, c, f.fmt(x)] for i, m in enumerate(mats)
                    for r, pairs in enumerate(m.row_entries()) for c, x in pairs]

        d = {
            "name": self.name,
            "algebra": self.algebra.name,
            "dim": self.dim,
            "left": sparse(self.left),
            "right": sparse(self.right),
            "second_kind": self.second_kind,
        }
        if self.graded:
            d["parity"] = list(self.parity)
        return d

    @staticmethod
    def from_json_dict(d: dict, algebra: FiniteAlgebra) -> "Bimodule":
        if not isinstance(d, dict):
            raise ModuleError("module spec must be a JSON object")
        if d.get("algebra") not in (None, algebra.name):
            raise ModuleError(
                f"module spec references algebra {d.get('algebra')!r}, got {algebra.name!r}")
        dim = int(d["dim"])
        field = algebra.field

        def actions(triples):
            rows = [[{} for _ in range(dim)] for _ in range(algebra.dim)]
            for i, r, c, v in triples:
                i, r, c = int(i), int(r), int(c)
                if not (0 <= i < algebra.dim and 0 <= r < dim and 0 <= c < dim):
                    raise ModuleError(
                        f"action entry [{i}, {r}, {c}] out of range for a "
                        f"{dim}-dim module over a {algebra.dim}-dim algebra")
                rows[i][r][c] = field.coerce(v)
            return [Matrix.from_entries(field, [r.items() for r in m], dim) for m in rows]

        parity = d.get("parity")
        if parity is not None and not (isinstance(parity, list) and len(parity) == dim):
            raise ModuleError(f"parity must be a list of {dim} entries, got {parity!r}")
        return Bimodule(algebra, dim, actions(d["left"]), actions(d["right"]),
                        parity, d.get("second_kind", "right"),
                        name=d.get("name", "module"))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path, algebra: FiniteAlgebra) -> "Bimodule":
        with open(path, encoding="utf-8") as fh:
            return Bimodule.from_json_dict(json.load(fh), algebra)

    def __repr__(self):
        return f"Bimodule({self.name}, dim {self.dim} over {self.algebra.name})"


class ModuleReport:
    def __init__(self):
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def fail(self, kind, witness):
        self.failures.append({"kind": kind, "witness": witness})

    def to_dict(self):
        return {"ok": self.ok, "failures": self.failures}


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def regular_bimodule(a: FiniteAlgebra) -> Bimodule:
    """A acting on itself by multiplication on both sides."""
    left = [a.left_mult_basis(i) for i in range(a.dim)]
    right = [a.right_mult_basis(i) for i in range(a.dim)]
    return Bimodule(a, a.dim, left, right, a.parity, name=f"{a.name}[reg]")


def free_module(a: FiniteAlgebra, rank: int) -> Bimodule:
    """Direct sum of ``rank`` copies of the regular bimodule."""
    reg = regular_bimodule(a)
    out = reg
    for _ in range(rank - 1):
        out = direct_sum(out, reg)
    out.name = f"{a.name}^{rank}"
    return out


def direct_sum(p: Bimodule, q: Bimodule) -> Bimodule:
    if p.algebra is not q.algebra:
        raise ModuleError("direct sum needs modules over the same algebra")
    f = p.field
    dim = p.dim + q.dim

    def block(mp, mq):
        rows = mp.row_entries() + [[(p.dim + c, x) for c, x in r] for r in mq.row_entries()]
        return Matrix.from_pairs(f, rows, dim)

    left = [block(a, b) for a, b in zip(p.left, q.left)]
    right = [block(a, b) for a, b in zip(p.right, q.right)]
    parity = None
    if p.graded and q.graded:
        parity = list(p.parity) + list(q.parity)
    return Bimodule(p.algebra, dim, left, right, parity,
                    name=f"{p.name}(+){q.name}")


def tensor_algebra_module(a: FiniteAlgebra, p: Bimodule) -> Bimodule:
    """A ⊗ P with the two commuting left structures b(x⊗q) = bx⊗q and
    b∙(x⊗q) = x⊗(bq); the second family sits in the right slot.

    For commutative A the bullet family satisfies the right-action law, so
    the result is marked as an honest bimodule; otherwise it is flagged
    ``left_bullet``.
    """
    if p.algebra is not a:
        raise ModuleError("module is not over the given algebra")
    f = a.field
    eye_p = Matrix.identity(f, p.dim)
    eye_a = Matrix.identity(f, a.dim)
    left = [kron(a.left_mult_basis(i), eye_p) for i in range(a.dim)]
    bullet = [kron(eye_a, p.left[i]) for i in range(a.dim)]
    kind = "right" if a.is_commutative() else "left_bullet"
    return Bimodule(a, a.dim * p.dim, left, bullet, None, second_kind=kind,
                    name=f"{a.name}⊗{p.name}")


class SandwichModule:
    """A ⊗ P ⊗ A with outer bimodule actions and the two middle actions."""

    def __init__(self, a: FiniteAlgebra, p: Bimodule):
        if p.algebra is not a:
            raise ModuleError("module is not over the given algebra")
        f = a.field
        n, m = a.dim, p.dim
        eye_a = Matrix.identity(f, n)
        eye_p = Matrix.identity(f, m)
        eye_pa = Matrix.identity(f, m * n)
        self.algebra = a
        self.module = p
        self.dim = n * m * n
        outer_left = [kron(a.left_mult_basis(i), eye_pa) for i in range(n)]
        outer_right = [kron(eye_pa, a.right_mult_basis(i)) for i in range(n)]
        self.bimodule = Bimodule(a, self.dim, outer_left, outer_right,
                                 name=f"{a.name}⊗{p.name}⊗{a.name}")
        self.mid_left = [kron(eye_a, kron(p.left[i], eye_a)) for i in range(n)]
        self.mid_right = [kron(eye_a, kron(p.right[i], eye_a)) for i in range(n)]
