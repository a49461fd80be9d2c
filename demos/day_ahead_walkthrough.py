"""Walk through one day on the bundled 3-user microgrid.

Solves the day twice: exactly, with the centralized LP, and with the
message-passing scheme that only ever shares price and imbalance estimates
between neighbors.  Prints the tariff, the two schedules side by side, and
where the distributed run's money ended up.

Run from the repository root:  python3 demos/day_ahead_walkthrough.py
"""

from pathlib import Path

import numpy as np

from coopgrid import load_scenario, run_codes, solve_social

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "three_agent.json"


def bar(value, scale=1.0, width=24):
    n = int(round(abs(value) * scale))
    return ("#" * min(n, width)).ljust(width)


def main():
    sc = load_scenario(FIXTURE)
    buy = np.array(sc.tariff.buy)

    print(f"scenario: {sc.n_users} users, T={sc.horizon} steps of {sc.dt_hours} h")
    print(f"grid interface limit {sc.p_grid_max_kw} kW, ring communication graph\n")

    print("hourly buy price ($/kWh):")
    for t in range(sc.horizon):
        print(f"  {t:2d}  {buy[t]:.4f}  {bar(buy[t], scale=100)}")

    schedule, j_star = solve_social(sc)
    print(f"\ncentralized optimum: J = {j_star:.4f} $/day")

    result = run_codes(sc)
    gap = abs(result.j - j_star) / abs(j_star)
    print(f"distributed run:     J = {result.j:.4f} $/day "
          f"({result.iterations} iterations, status {result.status}, gap {100 * gap:.2f}%)")

    total_lp = sum(schedule.desd_power_kw.values())
    total_cd = sum(result.schedule.desd_power_kw.values())
    net_lp = schedule.grid_buy_kw - schedule.grid_sell_kw
    net_cd = result.schedule.grid_buy_kw - result.schedule.grid_sell_kw
    print("\n      summed storage dispatch (kW)     net grid draw (kW)")
    print("  t     exact      distributed         exact      distributed")
    for t in range(sc.horizon):
        print(f"  {t:2d}  {total_lp[t]:+8.2f}   {total_cd[t]:+8.2f}"
              f"          {net_lp[t]:+8.2f}   {net_cd[t]:+8.2f}")

    charge_hours = [t for t in range(sc.horizon) if total_lp[t] < -1e-6]
    discharge_hours = [t for t in range(sc.horizon) if total_lp[t] > 1e-6]
    cheapest = sorted(range(sc.horizon), key=buy.__getitem__)[:len(charge_hours)]
    print(f"\nbatteries charge during {charge_hours}")
    print(f"  (the cheapest hours are {sorted(cheapest)})")
    print(f"and discharge during {discharge_hours}, covering the morning ramp")
    print("and selling into the afternoon price peak: buy low, sell high.")


if __name__ == "__main__":
    main()
