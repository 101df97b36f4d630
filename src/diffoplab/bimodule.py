"""Two-sided modules over a FiniteAlgebra via left/right action matrices.

A bimodule stores one m×m action matrix per algebra basis element on each
side.  The second family normally obeys the right-action law; ambients like
A ⊗ P carry two commuting *left* structures instead, which is recorded in
``second_kind`` so validation checks the law actually promised.
"""

from __future__ import annotations

import json

from .algebra import FiniteAlgebra, ValidationReport, action_law_failures, generator_laws_hold
from .fields import Field
from .linalg import Matrix, kron


class ModuleError(ValueError):
    pass


class Bimodule:
    """Finite-dimensional two-sided module given by action matrices."""

    def __init__(self, algebra: FiniteAlgebra, dim: int, left, right,
                 parity=None, second_kind: str = "right", name: str = "module",
                 derived_from=None):
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
        # graded -> the derivations into this module, filled by derivations.derivations
        self.derivation_spaces = {}
        # the modules whose generator laws imply this one's (none: it is built
        # from the algebra alone); None when they are checked on first use
        self._derived_from = None if derived_from is None else tuple(derived_from)
        self._follows = None
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

    def validate(self) -> ValidationReport:
        """Every module law of ``algebra.action_law_failures`` that fails, over
        every basis index, and a parity list of the wrong length."""
        rep = ValidationReport()
        length_ok = not self.graded or len(self.parity) == self.dim
        for kind, witness in action_law_failures(
                self.algebra, self.left, self.right, range(self.algebra.dim),
                self.second_kind, self.parity if length_ok else None):
            rep.fail(kind, witness)
        if not length_ok:
            rep.fail("parity_length", None)
        return rep

    def follows_generators(self) -> bool:
        """Whether a condition imposed for the algebra's generators holds for
        all of A: whether ``algebra.generator_laws_hold`` on this module for
        ``algebra.generator_indices()``.  A module built from the algebra and
        from modules that follow them (``derived_from``) follows them too and
        is not checked; any other one, such as a module read from JSON, is
        checked once, when first asked."""
        if self._follows is None:
            if self._derived_from is not None:
                self._follows = all(m.follows_generators() for m in self._derived_from)
            else:
                self._follows = self._check_generator_laws()
        return self._follows

    def _check_generator_laws(self) -> bool:
        alg = self.algebra
        return generator_laws_hold(alg, alg.generator_indices(), self.left, self.right,
                                   self.parity, self.second_kind == "right")

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


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def regular_bimodule(a: FiniteAlgebra) -> Bimodule:
    """A acting on itself by multiplication on both sides: one module per
    algebra, kept on it, so builders over it share its solves."""
    if a.regular_module is None:
        left = [a.left_mult_basis(i) for i in range(a.dim)]
        right = [a.right_mult_basis(i) for i in range(a.dim)]
        a.regular_module = Bimodule(a, a.dim, left, right, a.parity, name=f"{a.name}[reg]",
                                    derived_from=())
    return a.regular_module


def free_module(a: FiniteAlgebra, rank: int) -> Bimodule:
    """Direct sum of ``rank`` copies of the regular bimodule, as a new module."""
    reg = regular_bimodule(a)
    out = Bimodule(a, reg.dim, reg.left, reg.right, reg.parity, derived_from=(reg,))
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
                    name=f"{p.name}(+){q.name}", derived_from=(p, q))


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
                    name=f"{a.name}⊗{p.name}", derived_from=(p,))


class SandwichModule:
    """A ⊗ P ⊗ A with outer bimodule actions and the two middle actions,
    each middle action built when first read."""

    def __init__(self, a: FiniteAlgebra, p: Bimodule):
        if p.algebra is not a:
            raise ModuleError("module is not over the given algebra")
        f = a.field
        n, m = a.dim, p.dim
        eye_pa = Matrix.identity(f, m * n)
        self.module = p
        self.dim = n * m * n
        outer_left = [kron(a.left_mult_basis(i), eye_pa) for i in range(n)]
        outer_right = [kron(eye_pa, a.right_mult_basis(i)) for i in range(n)]
        self.bimodule = Bimodule(a, self.dim, outer_left, outer_right,
                                 name=f"{a.name}⊗{p.name}⊗{a.name}", derived_from=())
        self._eye_a = Matrix.identity(f, n)
        self._middle = {}

    def middle(self, side: str, i: int) -> Matrix:
        """The middle action x⊗q⊗y ↦ x⊗(e_i q)⊗y (side "left") or x⊗(q e_i)⊗y
        (side "right"), built when first read and kept."""
        if (side, i) not in self._middle:
            act = getattr(self.module, side)[i]
            self._middle[side, i] = kron(self._eye_a, kron(act, self._eye_a))
        return self._middle[side, i]


def condition_indices(*modules):
    """The basis indices of A on which the operator layer imposes a condition
    stated for every a ∈ A, over maps between these modules:
    ``algebra.generator_indices()`` when every module follows the
    generators' laws (``Bimodule.follows_generators``) and their second
    actions are of one kind, every index otherwise.  A map intertwining a
    right action with a left one on the generators need not on their
    products, which compose in opposite orders.
    """
    a = modules[0].algebra
    kept = a.generator_indices()
    if len(kept) < a.dim and len({m.second_kind for m in modules}) == 1 \
            and all(m.follows_generators() for m in modules):
        return kept
    return tuple(range(a.dim))
