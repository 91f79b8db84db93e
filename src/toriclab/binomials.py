"""Binomials x^plus - x^minus with disjoint supports and a common grading degree.

The canonical orientation puts the lexicographically larger exponent vector
on the plus side, so equal binomials compare equal regardless of how they
were produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence


class BinomialError(ValueError):
    pass


class NonCoprimeError(BinomialError):
    """Plus and minus share a variable; the relation is not in reduced form."""


class DegreeMismatchError(BinomialError):
    """The two monomials grade differently; not a valid relation."""


@dataclass(frozen=True)
class Binomial:
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    degree: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(
            i for i, (p, q) in enumerate(zip(self.plus, self.minus)) if p or q
        )

    @property
    def total_degree(self) -> int:
        return sum(self.plus)

    def sort_key(self) -> tuple:
        return (self.total_degree, self.plus, self.minus)

    def vector(self) -> tuple[int, ...]:
        """Signed exponent vector plus - minus."""
        return tuple(p - q for p, q in zip(self.plus, self.minus))

    def render(self, prefix: str = "e") -> str:
        return f"{render_monomial(self.plus, prefix)} - {render_monomial(self.minus, prefix)}"

    def to_json(self, prefix: str = "e") -> dict:
        return {
            "plus": {f"{prefix}{i + 1}": k for i, k in enumerate(self.plus) if k},
            "minus": {f"{prefix}{i + 1}": k for i, k in enumerate(self.minus) if k},
            "degree": list(self.degree),
            "text": self.render(prefix),
        }


def render_monomial(exponents: Sequence[int], prefix: str = "e") -> str:
    parts = []
    for i, k in enumerate(exponents):
        if k == 1:
            parts.append(f"{prefix}{i + 1}")
        elif k > 1:
            parts.append(f"{prefix}{i + 1}^{k}")
    return "*".join(parts) if parts else "1"


def make_binomial(
    plus: Sequence[int],
    minus: Sequence[int],
    degree_fn: Callable[[Sequence[int]], tuple[int, ...]],
) -> Binomial:
    """Build a canonical binomial, validating coprimality and degree balance."""
    p = tuple(int(x) for x in plus)
    q = tuple(int(x) for x in minus)
    if len(p) != len(q):
        raise BinomialError("exponent vectors differ in length")
    if any(x < 0 for x in p + q):
        raise BinomialError("exponents must be nonnegative")
    if any(a and b for a, b in zip(p, q)):
        shared = [i for i, (a, b) in enumerate(zip(p, q)) if a and b]
        raise NonCoprimeError(f"shared variables at indices {shared}")
    if p == q:
        raise BinomialError("zero binomial")
    dp = tuple(degree_fn(p))
    dq = tuple(degree_fn(q))
    if dp != dq:
        raise DegreeMismatchError(f"degrees differ: {dp} vs {dq}")
    if p < q:
        p, q = q, p
    return Binomial(p, q, dp)


BASIS_KINDS = ("circuits", "graver", "ugb", "markov", "indispensable")


@dataclass(frozen=True)
class BasisSet:
    """A canonical, duplicate-free, sorted family of binomials.

    ``annotations[i]`` is a JSON-ready dict of per-element tags (may be empty).
    Elements are sorted by (total degree, plus vector, minus vector), so two
    runs over the same input serialize to identical bytes.
    """

    kind: str
    variables: int
    elements: tuple[Binomial, ...]
    annotations: tuple[dict, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
        return frozenset((b.plus, b.minus) for b in self.elements)

    def __contains__(self, item: Binomial) -> bool:
        return (item.plus, item.minus) in self.element_set()

    def to_json(self, prefix: str = "e") -> dict:
        return {
            "kind": self.kind,
            "variables": self.variables,
            "count": len(self.elements),
            "elements": [
                {**b.to_json(prefix), "tags": dict(ann)}
                for b, ann in zip(self.elements, self.annotations)
            ],
        }


def make_basis_set(
    kind: str,
    variables: int,
    items: Sequence[tuple[Binomial, dict]],
) -> BasisSet:
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    seen: dict[tuple, tuple[Binomial, dict]] = {}
    for binomial, ann in items:
        if len(binomial.plus) != variables:
            raise BinomialError("element length does not match variable count")
        key = (binomial.plus, binomial.minus)
        if key in seen:
            if seen[key][1] != ann:
                raise BinomialError(
                    f"duplicate element {binomial.render()} with conflicting tags"
                )
            continue
        seen[key] = (binomial, dict(ann))
    ordered = sorted(seen.values(), key=lambda pair: pair[0].sort_key())
    return BasisSet(
        kind,
        variables,
        tuple(b for b, _ in ordered),
        tuple(a for _, a in ordered),
    )
