"""Reference Buchberger engine for the engine tests: sugar-ordered pairs with
the product criterion and the chain criterion checked against the set of
pairs already resolved.  It is the engine ``idealiser.groebner`` had before
the Gebauer-Moeller pair update, kept as the oracle that the reduced bases
of the current engine are compared against.
"""

import heapq

from idealiser.groebner import normal_form, s_polynomial
from idealiser.poly import mono_degree, mono_divides, mono_lcm, mono_mul


def chain_buchberger(gens, order, counter=None):
    """A (non-minimal) Groebner basis of ``gens``; ``counter["spolys"]``
    counts the S-polynomials reduced."""
    G, sugars, lms = [], [], []
    for g in gens:
        if g.is_zero:
            continue
        g = g.monic(order)
        G.append(g)
        sugars.append(int(g.degree()))
        lms.append(g.leading(order)[0])

    queue = []

    def push_pairs(j):
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            sugar = mono_degree(lcm) + max(
                sugars[i] - mono_degree(lms[i]), sugars[j] - mono_degree(lms[j])
            )
            heapq.heappush(queue, (sugar, order.key(lcm), i, j))

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
        r = normal_form(s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero:
            continue
        r = r.monic(order)
        G.append(r)
        sugars.append(max(sugar, int(r.degree())))
        lms.append(r.leading(order)[0])
        push_pairs(len(G) - 1)
    return G


def chain_reduced_basis(gens, order, counter=None):
    """Minimal, monic, inter-reduced basis sorted by descending leading
    monomial, from ``chain_buchberger``."""
    G = sorted(chain_buchberger(gens, order, counter), key=lambda g: order.key(g.leading(order)[0]))
    minimal = []
    for g in G:
        lm = g.leading(order)[0]
        if not any(mono_divides(h.leading(order)[0], lm) for h in minimal):
            minimal.append(g)
    reduced = [
        normal_form(g, minimal[:k] + minimal[k + 1 :], order).monic(order)
        for k, g in enumerate(minimal)
    ]
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]), reverse=True)
    return tuple(reduced)
