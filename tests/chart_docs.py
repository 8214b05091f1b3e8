"""Random chart documents for the Hypothesis properties.

m <= 3, components are random trees of ``sin``/``cos``/``sqrt``, ``+ - * /``,
integer powers -3..40 and constants from 1e-300 to 1e300, over random
domains, with ``normalize`` on or off.  Most such charts fail at most sample
points, at every stage of the geometry, which is what the properties probe.
With ``valid=False`` two documents in five have an empty or narrow domain
interval or an undeclared parameter, which the chart validation rejects.
``perturbed_tori`` draws the opposite: charts that mostly evaluate.
"""

from hypothesis import strategies as st


def expressions(m: int):
    constants = st.builds(lambda mant, exp: f"{mant}e{exp}",
                          st.sampled_from(["1", "2.5", "0.3", "7"]), st.integers(-300, 300))
    leaves = st.one_of(st.sampled_from([f"u{i + 1}" for i in range(m)]),
                       st.sampled_from(["0.5", "1", "2", "pi"]), constants)

    def extend(sub):
        return st.one_of(
            st.builds(lambda f, a: f"{f}({a})", st.sampled_from(["sin", "cos", "sqrt"]), sub),
            st.builds(lambda a, op, b: f"({a} {op} {b})", sub, st.sampled_from("+-*/"), sub),
            st.builds(lambda a, k: f"({a})^{k}", sub, st.integers(-3, 40)),
            sub.map(lambda a: f"-({a})"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def chart_documents(draw, valid: bool = True) -> dict:
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, m + 3))
    doc = {
        "name": "fuzz", "m": m, "n": n,
        "expressions": draw(st.lists(expressions(m), min_size=n + 1, max_size=n + 1)),
        "domain": [[lo, lo + width] for lo, width in draw(st.lists(
            st.tuples(st.floats(-4.0, 4.0), st.floats(0.2, 7.0)), min_size=m, max_size=m))],
        "normalize": draw(st.sampled_from([True, True, False])),
    }
    flaw = "none" if valid else draw(st.sampled_from(["none"] * 3 + ["domain", "param"]))
    if flaw == "domain":
        doc["domain"][0][1] = doc["domain"][0][0] + draw(st.floats(-1.0, 0.09))
    elif flaw == "param":
        doc["expressions"][0] = f"c * {doc['expressions'][0]}"
    return doc


@st.composite
def perturbed_tori(draw) -> dict:
    """Flat tori T^m in S^{2m} (codimension m = 1..3) with a bounded random
    term eps * sin(tree) added to every component, normalized: unlike
    ``chart_documents``, most sample points of most such charts evaluate,
    with |H| > 0 and no parallel structure."""
    m = draw(st.integers(1, 3))
    base = [f"{f}(u{i + 1})" for i in range(m) for f in ("cos", "sin")] + ["1"]
    eps = draw(st.sampled_from(["0.01", "0.05", "0.2"]))
    terms = draw(st.lists(expressions(m), min_size=len(base), max_size=len(base)))
    return {
        "name": "perturbed-torus", "m": m, "n": 2 * m,
        "expressions": [f"{b} + {eps} * sin({t})" for b, t in zip(base, terms)],
        "domain": [[0.3, 6.0]] * m,
        "normalize": True,
    }
