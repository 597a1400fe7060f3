"""Exact multivariate (quasi-)polynomials.

A :class:`Polynomial` maps monomials to rational coefficients.  A
monomial is a sorted tuple of ``(atom, exponent)`` pairs where an atom
is a variable name or a :class:`~repro.qpoly.atoms.ModAtom`.  All
arithmetic is exact (``fractions.Fraction``).

These are the values the summation engine manipulates: the summand of
``(Σ v : P : z)`` and the per-piece values of the final answer.

The public constructor normalizes what it is given: every coefficient
goes through ``Fraction`` and every monomial is sorted and merged.
Arithmetic results skip that step: their terms are normalized by
construction, so :meth:`Polynomial._make` adopts them as they are
(the idiom of ``Conjunct._make`` and ``Affine._from_sorted``).  Sums
and differences merge the two term dicts, a product by an ``int`` or
``Fraction`` scales the coefficients, and a monomial product with a
constant side skips the sort.
"""

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.qpoly.atoms import Atom, ModAtom, atom_sort_key, evaluate_atom

Monomial = Tuple[Tuple[Atom, int], ...]
Scalar = Union[int, Fraction]

_set = object.__setattr__


def _normalize_monomial(pairs: Iterable[Tuple[Atom, int]]) -> Monomial:
    merged: Dict[Atom, int] = {}
    for atom, exp in pairs:
        if exp:
            merged[atom] = merged.get(atom, 0) + exp
    return tuple(
        sorted(
            ((a, e) for a, e in merged.items() if e),
            key=lambda ae: (atom_sort_key(ae[0]), ae[1]),
        )
    )


class Polynomial:
    """Immutable exact multivariate polynomial over variable/mod atoms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Scalar]] = None):
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                coef = Fraction(coef)
                if coef:
                    mono = _normalize_monomial(mono)
                    clean[mono] = clean.get(mono, Fraction(0)) + coef
                    if not clean[mono]:
                        del clean[mono]
        _set(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def _make(cls, terms: Dict[Monomial, Fraction]) -> "Polynomial":
        """A polynomial that adopts ``terms`` as they are.

        Every monomial is normalized and distinct and every coefficient
        is a nonzero ``Fraction``; the dict becomes the new polynomial's
        own, so the caller must not keep using it.
        """
        poly = object.__new__(cls)
        _set(poly, "terms", terms)
        return poly

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        value = Fraction(value)
        return cls._make({(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls._make({((name, 1),): Fraction(1)})

    @classmethod
    def atom(cls, atom: Atom) -> "Polynomial":
        return cls._make({((atom, 1),): Fraction(1)})

    @classmethod
    def from_affine(
        cls, coeffs: Mapping[str, Scalar], const: Scalar = 0
    ) -> "Polynomial":
        terms: Dict[Monomial, Fraction] = {}
        for var, c in coeffs.items():
            if c:
                terms[((var, 1),)] = Fraction(c)
        if const:
            terms[()] = Fraction(const)
        return cls._make(terms)

    zero = None  # populated after class definition
    one = None

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not mono for mono in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return self.terms.get((), Fraction(0))

    def atoms(self) -> List[Atom]:
        seen: Dict[Atom, None] = {}
        for mono in self.terms:
            for atom, _ in mono:
                seen.setdefault(atom, None)
        return list(seen)

    def variables(self) -> List[str]:
        """All variable names, including those inside mod atoms."""
        seen: Dict[str, None] = {}
        for atom in self.atoms():
            if isinstance(atom, str):
                seen.setdefault(atom, None)
            else:
                for v in atom.variables():
                    seen.setdefault(v, None)
        return list(seen)

    def degree_in(self, var: str) -> int:
        """Degree in the plain-variable atom ``var`` (mod atoms ignored)."""
        best = 0
        for mono in self.terms:
            for atom, exp in mono:
                if atom == var:
                    best = max(best, exp)
        return best

    def total_degree(self) -> int:
        best = 0
        for mono in self.terms:
            best = max(best, sum(exp for _, exp in mono))
        return best

    def uses_var(self, var: str) -> bool:
        return var in self.variables()

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return NotImplemented

    def _merge(self, other, sign: int) -> "Polynomial":
        """``self + sign·other`` by merging the two term dicts."""
        if isinstance(other, Polynomial):
            add = other.terms
        elif isinstance(other, (int, Fraction)):
            add = {(): Fraction(other)} if other else {}
        else:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coef in add.items():
            if sign < 0:
                coef = -coef
            total = terms.get(mono)
            if total is None:
                terms[mono] = coef
                continue
            total += coef
            if total:
                terms[mono] = total
            else:
                del terms[mono]
        return Polynomial._make(terms)

    def __add__(self, other) -> "Polynomial":
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._merge(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial._make({})
            return Polynomial._make(
                {m: c * other for m, c in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if not m2:
                    mono = m1
                elif not m1:
                    mono = m2
                else:
                    mono = _normalize_monomial(m1 + m2)
                total = terms.get(mono)
                terms[mono] = c1 * c2 if total is None else total + c1 * c2
        return Polynomial._make({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        inv = Fraction(1, 1) / Fraction(scalar)
        return Polynomial._make({m: c * inv for m, c in self.terms.items()})

    def __pow__(self, exp: int) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:  # the square after the last bit would go unused
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- structure ------------------------------------------------------

    def coefficients_in(self, var: str) -> Dict[int, "Polynomial"]:
        """View as a univariate polynomial in ``var``.

        Returns {exponent: coefficient polynomial}.  Raises ValueError
        if ``var`` occurs inside a mod atom (such occurrences are not
        polynomial in ``var``).
        """
        out: Dict[int, Dict[Monomial, Fraction]] = {}
        for mono, coef in self.terms.items():
            exp = 0
            rest: List[Tuple[Atom, int]] = []
            for atom, e in mono:
                if atom == var:
                    exp = e
                elif isinstance(atom, ModAtom) and var in atom.variables():
                    raise ValueError(
                        "%s occurs inside mod atom %s; not polynomial" % (var, atom)
                    )
                else:
                    rest.append((atom, e))
            out.setdefault(exp, {})[tuple(rest)] = coef
        return {e: Polynomial._make(t) for e, t in out.items()}

    def substitute(self, var: str, replacement: "Polynomial") -> "Polynomial":
        """Substitute a polynomial for a plain-variable atom.

        If ``var`` occurs inside mod atoms, the replacement must be an
        integer affine expression over plain variables (so the mod atom
        stays a mod atom).
        """
        result = Polynomial()
        for mono, coef in self.terms.items():
            piece = Polynomial._make({(): coef})
            for atom, exp in mono:
                if atom == var:
                    piece = piece * replacement ** exp
                elif isinstance(atom, ModAtom) and var in atom.variables():
                    coeffs, const = replacement.as_integer_affine()
                    new_atom = atom.substitute_var(var, coeffs, const)
                    if new_atom.is_constant():
                        piece = piece * Fraction(new_atom.const) ** exp
                    else:
                        piece = piece * Polynomial.atom(new_atom) ** exp
                else:
                    piece = piece * Polynomial.atom(atom) ** exp
            result = result + piece
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        terms: Dict[Monomial, Fraction] = {}
        for mono, coef in self.terms.items():
            new_mono = []
            for atom, exp in mono:
                if isinstance(atom, str):
                    new_mono.append((mapping.get(atom, atom), exp))
                else:
                    new_mono.append((atom.rename(mapping), exp))
            mono2 = _normalize_monomial(new_mono)
            terms[mono2] = terms.get(mono2, Fraction(0)) + coef
        return Polynomial._make({m: c for m, c in terms.items() if c})

    def as_integer_affine(self) -> Tuple[Dict[str, int], int]:
        """Decompose as an integer affine expression of plain variables.

        Raises ValueError if the polynomial is not affine with integer
        coefficients over plain variables only.
        """
        coeffs: Dict[str, int] = {}
        const = 0
        for mono, coef in self.terms.items():
            if coef.denominator != 1:
                raise ValueError("non-integer coefficient in %s" % self)
            if not mono:
                const = int(coef)
            elif (
                len(mono) == 1
                and mono[0][1] == 1
                and isinstance(mono[0][0], str)
            ):
                coeffs[mono[0][0]] = int(coef)
            else:
                raise ValueError("not affine: %s" % self)
        return coeffs, const

    # -- evaluation and display ------------------------------------------

    def evaluate(self, env: Mapping[str, int]) -> Fraction:
        total = Fraction(0)
        for mono, coef in self.terms.items():
            val = coef
            for atom, exp in mono:
                val *= Fraction(evaluate_atom(atom, env)) ** exp
            total += val
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in sorted(
            self.terms.items(),
            key=lambda mc: (
                -sum(e for _, e in mc[0]),
                tuple((atom_sort_key(a), e) for a, e in mc[0]),
            ),
        ):
            factors = []
            for atom, exp in mono:
                name = atom if isinstance(atom, str) else str(atom)
                factors.append(name if exp == 1 else "%s**%d" % (name, exp))
            body = "*".join(factors)
            if not body:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append("-%s" % body)
            else:
                parts.append("%s*%s" % (coef, body))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return "Polynomial(%s)" % self


Polynomial.zero = Polynomial()
Polynomial.one = Polynomial.constant(1)
