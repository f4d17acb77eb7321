"""Reference Buchberger engine for the engine tests: sugar-ordered pairs with
the product criterion and the chain criterion checked against the set of
pairs already resolved.  It is the engine ``idealiser.groebner`` had before
the Gebauer-Moeller pair update, kept as the oracle that the reduced bases
of the current engine are compared against.  Like the engine, it computes
in the order of the generators' ring.  ``repeated_by_basis`` is the
repeated-factor test by a basis alone, the oracle of the univariate gcd
certificates.
"""

import heapq

from idealiser.groebner import Ideal, krull_dimension, normal_form, s_polynomial
from idealiser.poly import Poly, PolyRing, mono_degree, mono_divides, mono_lcm, mono_mul


def repeated_by_basis(f):
    """f has a repeated factor, by the basis alone: f and its partials share
    a nonconstant factor, so V(f, df/dx_1, ...) has dimension n - 1."""
    n = f.ring.n
    return krull_dimension(Ideal(f.ring, [f] + [f.partial(i) for i in range(n)])) == n - 1


def in_order(polys, order):
    """The polynomials moved into a ring with the same variables under ``order``."""
    ring = PolyRing(polys[0].ring.variables, order)
    return [Poly.from_ints(ring, p.num, p.den, p.ints) for p in polys]


def chain_buchberger(gens, counter=None):
    """A (non-minimal) Groebner basis of ``gens``; ``counter["spolys"]``
    counts the S-polynomials reduced."""
    key = gens[0].ring.order.key
    G, sugars, lms = [], [], []
    for g in gens:
        if g.is_zero:
            continue
        g = g.monic()
        G.append(g)
        sugars.append(int(g.degree()))
        lms.append(g.leading_monomial())

    queue = []

    def push_pairs(j):
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            sugar = mono_degree(lcm) + max(
                sugars[i] - mono_degree(lms[i]), sugars[j] - mono_degree(lms[j])
            )
            heapq.heappush(queue, (sugar, key(lcm), i, j))

    for j in range(1, len(G)):
        push_pairs(j)

    resolved = set()
    while queue:
        sugar, _, i, j = heapq.heappop(queue)
        resolved.add((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        if any(
            k not in (i, j)
            and mono_divides(lms[k], lcm)
            and (min(i, k), max(i, k)) in resolved
            and (min(j, k), max(j, k)) in resolved
            for k in range(len(G))
        ):
            continue
        if counter is not None:
            counter["spolys"] = counter.get("spolys", 0) + 1
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if r.is_zero:
            continue
        r = r.monic()
        G.append(r)
        sugars.append(max(sugar, int(r.degree())))
        lms.append(r.leading_monomial())
        push_pairs(len(G) - 1)
    return G


def chain_reduced_basis(gens, counter=None):
    """Minimal, monic, inter-reduced basis sorted by descending leading
    monomial, from ``chain_buchberger``."""
    key = gens[0].ring.order.key
    G = sorted(chain_buchberger(gens, counter), key=lambda g: key(g.leading_monomial()))
    minimal = []
    for g in G:
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    reduced = [normal_form(g, minimal[:k] + minimal[k + 1 :]).monic() for k, g in enumerate(minimal)]
    reduced.sort(key=lambda g: key(g.leading_monomial()), reverse=True)
    return tuple(reduced)
