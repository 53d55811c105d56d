"""Query optimisation with containment: dropping Sigma-redundant joins.

Run:  python examples/query_optimizer.py

The paper's first motivation for containment is query optimisation.
This example minimises meta-queries: conjuncts that the Sigma_FL
constraints make redundant are detected by containment checks and
removed, shrinking the join the query engine has to execute.  Classic
(constraint-free) minimisation finds none of these — each redundancy
below exists only because of a specific rho rule.
"""

from repro import minimize_query
from repro.flogic import KnowledgeBase, encode_rule, parse_statement

CASES = [
    (
        "rho3: membership in the superclass is implied",
        "q1(O) :- member(O, C), sub(C, D), member(O, D).",
    ),
    (
        "rho2: the transitive subclass hop is implied",
        "q2(X, Z) :- sub(X, Y), sub(Y, Z), sub(X, Z).",
    ),
    (
        "rho7: the inherited signature is implied",
        "q3(A) :- sub(C, D), type(D, A, T), type(C, A, T), member(O, C).",
    ),
    (
        "rho1: the value's membership in the type is implied",
        "q4(V) :- type(O, A, T), data(O, A, V), member(V, T).",
    ),
    (
        "nothing redundant: already minimal",
        "q5(A, B) :- type(T1, A, T2), type(T2, B, W).",
    ),
]


def main() -> None:
    for title, source in CASES:
        query = encode_rule(parse_statement(source))
        result = minimize_query(query)
        print(f"-- {title}")
        print(f"   before: {query}")
        print(f"   after:  {result.minimized}")
        print(f"   {result}")
        print()

    # Sanity: minimised and original agree on an actual database.
    kb = KnowledgeBase().load(
        """
        student::person. person::agent.
        john:student. mary:person.
        """
    )
    original = encode_rule(
        parse_statement("q(O) :- member(O, C), sub(C, D), member(O, D).")
    )
    minimised = minimize_query(original).minimized
    assert kb.ask(original) == kb.ask(minimised)
    print("evaluation check: original and minimised queries agree on the KB ✓")


if __name__ == "__main__":
    main()
