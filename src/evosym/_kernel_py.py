"""Term-map kernels: the inner loops of all expression arithmetic.

A differential expression is stored as a mapping ``key -> coefficient``
(int or Fraction; the kernels keep an integral Fraction product, so
``parse("2*u1 + 4*u") / 2`` has two ``Fraction(n, 1)``, equal and hashing
equal to ints, only slower).  A key is a sorted tuple of ``(slot, value)``
pairs describing one normalized term:

* ``((0, gen), power)``       -- generator power; ``gen`` is an int code
  (``u_i -> i``, ``x -> -1``, ``t -> -2``), ``power`` a positive int.
* ``((1, name), power)``      -- named-constant power, nonzero int (constants
  are invertible, so powers may be negative).
* ``((2, gen, cmono), coeff)`` -- one component of the single exponential
  factor of the term: ``coeff * cmono * gen`` inside the exponent, with
  ``cmono`` a sorted tuple of ``(name, power)``.

Multiplying two terms adds the values of matching slots, which makes every
kernel below a merge or a merge-of-products.  Zero values are never stored.
"""


def mul_key(k1, k2):
    """Combine two term keys (slot-wise addition of values)."""
    if not k1:
        return k2
    if not k2:
        return k1
    out = []
    i = j = 0
    n1 = len(k1)
    n2 = len(k2)
    while i < n1 and j < n2:
        s1, v1 = k1[i]
        s2, v2 = k2[j]
        if s1 == s2:
            v = v1 + v2
            if v:
                out.append((s1, v))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    if i < n1:
        out.extend(k1[i:])
    if j < n2:
        out.extend(k2[j:])
    return tuple(out)


def add_into(acc, terms, factor):
    """In-place ``acc += factor * terms``; drops keys whose coefficient cancels."""
    if not factor:
        return
    get = acc.get
    for key, c in terms.items():
        v = get(key)
        if v is None:
            acc[key] = c * factor
        else:
            v = v + c * factor
            if v:
                acc[key] = v
            else:
                del acc[key]


def mul_single(terms, key, coeff):
    """Product of a term map with one term ``coeff * key``."""
    if not coeff:
        return {}
    if not key:
        return {k: c * coeff for k, c in terms.items()}
    out = {}
    for k, c in terms.items():
        out[mul_key(k, key)] = c * coeff
    return out


def mul_terms(a, b):
    """Full product of two term maps."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = mul_key(ka, kb)
            v = get(k)
            if v is None:
                out[k] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[k] = v
                else:
                    del out[k]
            get = out.get
    return out


def diff_terms(a, gen):
    """Formal partial derivative of a term map with respect to generator ``gen``.

    Handles both the power rule on monomial slots and the chain rule on the
    exponential-argument slots (the exponent is linear, so each component
    contributes its coefficient times its constant monomial).
    """
    out = {}
    get = out.get
    for key, c in a.items():
        for idx, (slot, val) in enumerate(key):
            kind = slot[0]
            if kind == 0:
                if slot[1] != gen:
                    continue
                if val == 1:
                    nk = key[:idx] + key[idx + 1:]
                else:
                    nk = key[:idx] + ((slot, val - 1),) + key[idx + 1:]
                nc = c * val
            elif kind == 2:
                if slot[1] != gen:
                    continue
                cmono = slot[2]
                if cmono:
                    nk = mul_key(key, tuple(((1, nm), e) for nm, e in cmono))
                else:
                    nk = key
                nc = c * val
            else:
                continue
            v = get(nk)
            if v is None:
                out[nk] = nc
            else:
                v = v + nc
                if v:
                    out[nk] = v
                else:
                    del out[nk]
            get = out.get
    return out


def total_d_terms(a):
    """Total x-derivative ``D = d/dx + sum u_{i+1} d/du_i`` of a term map.

    One pass over each key: the power rule on ``x``; the power rule on
    ``u_i`` with the removed factor replaced by ``u_{i+1}``; the chain rule
    on each exponential component ``coeff * cmono * gen``, which contributes
    ``coeff * cmono * D(gen)`` (``D(x) = 1``, ``D(u_i) = u_{i+1}``,
    ``D(t) = 0``).
    """
    out = {}
    get = out.get
    for key, c in a.items():
        n = len(key)
        for idx, (slot, val) in enumerate(key):
            kind, gen = slot[0], slot[1]
            if kind == 1 or gen == -2:  # constants and t: D is 0
                continue
            if kind == 0:
                head = key[:idx] if val == 1 else key[:idx] + ((slot, val - 1),)
                if gen == -1:
                    nk = head + key[idx + 1:]
                else:
                    # (0, gen + 1) sorts directly after (0, gen)
                    nxt = idx + 1
                    up = (0, gen + 1)
                    if nxt < n and key[nxt][0] == up:
                        nk = head + ((up, key[nxt][1] + 1),) + key[nxt + 1:]
                    else:
                        nk = head + ((up, 1),) + key[nxt:]
            else:
                factor = tuple(((1, nm), e) for nm, e in slot[2])
                if gen >= 0:
                    factor = (((0, gen + 1), 1),) + factor
                nk = mul_key(key, factor)
            nc = c * val
            v = get(nk)
            if v is None:
                out[nk] = nc
            else:
                v = v + nc
                if v:
                    out[nk] = v
                else:
                    del out[nk]
    return out
