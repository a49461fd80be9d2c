"""Split the cooperative bill so that every user saves the same amount.

Each user first solves its own day in isolation; those stand-alone costs are
what anyone would pay without the microgrid.  Cooperation lowers the total,
and the equal-savings split hands every user the identical discount, so no
single user prefers to leave: each pays at most its stand-alone cost.  A group
can still prefer to leave together.  On this fixture users 2 and 3 would run
their own two-user day for -6.2472, against -6.1416 for their two shares, so
the pair would pay 0.106 less on its own.  The same split is then recomputed
with nothing but neighbor-to-neighbor averaging to show the graph version
agrees.

Run from the repository root:  python3 demos/fair_split.py
"""

from pathlib import Path

from coopgrid import (
    allocate_centralized,
    allocate_distributed,
    consumption_costs,
    disagreement_point,
    load_scenario,
    solve_social,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "three_agent.json"


def main():
    sc = load_scenario(FIXTURE)
    schedule, j = solve_social(sc)
    d = disagreement_point(sc)

    print("stand-alone costs ($/day):")
    for agent, cost in zip(sc.users, d):
        print(f"  user {agent.id} ({agent.role}): {cost:+.4f}")
    print(f"  total alone: {d.sum():+.4f}")
    print(f"  cooperating: {j:+.4f}  -> surplus {d.sum() - j:.4f}\n")

    report = allocate_centralized(sc, j, d)
    consumption, residual = consumption_costs(sc, schedule)
    print(f"equal-savings split (epsilon = {report.epsilon:.4f} per user):")
    print("  user      alone      allocated   consumption")
    rows = zip(report.agent_ids, report.selfish, report.allocated, consumption)
    for agent_id, alone, alloc, bill in rows:
        print(f"  {agent_id:4d}   {alone:+9.4f}   {alloc:+9.4f}   {bill:+9.4f}")
    print(f"  netting residual (bills vs. grid cost): {residual:.4f}\n")

    distributed = allocate_distributed(sc, j, d, tol=1e-8)
    worst = max(abs(a - b) for a, b in zip(distributed.allocated, report.allocated))
    print(f"consensus version: {distributed.rounds} rounds on the ring,")
    print(f"largest difference from the direct split: {worst:.2e} $")


if __name__ == "__main__":
    main()
