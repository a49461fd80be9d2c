"""The distributed scheme in its per-bus message-passing form, for tests only.

Every bus keeps its own variables and, once per round, reads nothing but the
Messages its graph neighbors sent.  `coopgrid.codes` runs the same rounds on
stacked arrays, mixing with one [[W, xi3 I], [0, W]] product; the tests pin
it to this form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coopgrid.scenario import ROLE_ACTIVE, ROLE_GRID


@dataclass
class Message:
    """Everything a bus is allowed to tell a neighbor."""

    lam_hat: np.ndarray
    dp_hat: np.ndarray


class Bus:
    def __init__(self, agent, scenario, config):
        self.agent, self.sc, self.cfg, t = agent, scenario, config, scenario.horizon
        self.p_buy, self.p_sell, self.p_desd = np.zeros(t), np.zeros(t), np.zeros(t)
        self.mu1, self.mu2, self.lam_hat = np.zeros(t), np.zeros(t), np.zeros(t)
        self.dp_local = self.imbalance()
        self.dp_hat = self.dp_local.copy()

    def imbalance(self):
        a = self.agent
        if a.role == ROLE_GRID:
            return -(self.p_buy - self.p_sell)
        if a.role == ROLE_ACTIVE:
            return np.array(a.demand_kw) - np.array(a.renewable_kw) - self.p_desd
        return np.array(a.demand_kw)

    def slacks(self):
        d, drained = self.agent.desd, np.cumsum(self.p_desd) * self.sc.dt_hours
        return d.e0_kwh - drained - d.emax_kwh, d.emin_kwh - d.e0_kwh + drained

    def primal_dual_step(self) -> None:
        """Projected gradient step on own variables, then the energy-box multipliers."""
        cfg, sc = self.cfg, self.sc
        price = self.lam_hat + cfg.rho * self.dp_hat
        if self.agent.role == ROLE_GRID:
            buy, sell = (np.array(p) * sc.dt_hours for p in (sc.tariff.buy, sc.tariff.sell))
            cap = sc.p_grid_max_kw
            self.p_buy = np.clip(self.p_buy - cfg.xi1_grid * (buy - price), 0, cap)
            self.p_sell = np.clip(self.p_sell - cfg.xi1_grid * (-sell + price), 0, cap)
        elif self.agent.role == ROLE_ACTIVE:
            over_full, over_empty = self.slacks()
            pressure = (-np.maximum(self.mu1 + cfg.rho * over_full, 0)
                        + np.maximum(self.mu2 + cfg.rho * over_empty, 0))
            grad = -price + sc.dt_hours * np.cumsum(pressure[::-1])[::-1]
            d = self.agent.desd
            self.p_desd = np.clip(self.p_desd - cfg.xi1_desd * grad,
                                  -d.p_charge_max_kw, d.p_discharge_max_kw)
            over_full, over_empty = self.slacks()
            self.mu1 = np.maximum(self.mu1 + cfg.xi2 * over_full, 0)
            self.mu2 = np.maximum(self.mu2 + cfg.xi2 * over_empty, 0)

    def receive(self, inbox: list[tuple[float, Message]]) -> None:
        """Mix each neighbor's (weight, message) into the own estimates."""
        lam, dp = self.lam_hat.copy(), self.dp_hat.copy()
        for w, msg in inbox:
            lam += w * (msg.lam_hat - self.lam_hat)
            dp += w * (msg.dp_hat - self.dp_hat)
        fresh = self.imbalance()
        self.lam_hat = lam + self.cfg.xi3 * self.dp_hat
        self.dp_hat, self.dp_local = dp + fresh - self.dp_local, fresh


def run_reference(scenario, config, rounds: int):
    """Buses after `rounds` rounds, and the per-round J_est, imbalance and disagreement."""
    g, dt = scenario.graph, scenario.dt_hours
    buses = {a.id: Bus(a, scenario, config) for a in scenario.agents}
    neighbors = {i: [b if a == i else a for a, b in g.edges if i in (a, b)] for i in g.node_ids}
    grid = next(b for b in buses.values() if b.agent.role == ROLE_GRID)
    trace = {"j_est": [], "max_imbalance_kw": [], "consensus_disagreement": []}
    for _ in range(rounds):
        for bus in buses.values():
            bus.primal_dual_step()
        sent = {i: Message(b.lam_hat, b.dp_hat) for i, b in buses.items()}
        for i, bus in buses.items():
            row = g.node_ids.index(i)
            bus.receive([(g.weights[row, g.node_ids.index(j)], sent[j]) for j in neighbors[i]])
        estimates = np.array([b.dp_hat for b in buses.values()])
        trace["j_est"].append(dt * (np.dot(scenario.tariff.buy, grid.p_buy)
                                    - np.dot(scenario.tariff.sell, grid.p_sell)))
        trace["max_imbalance_kw"].append(np.abs(sum(b.dp_local for b in buses.values())).max())
        trace["consensus_disagreement"].append((estimates.max(0) - estimates.min(0)).max())
    return buses, trace
