"""Deterministic market generator for the agorasim benchmark.

Each workload is a function of a seed and a few size parameters that returns
scenario YAML text. The same seed and sizes always give the same bytes: all
randomness comes from one `random.Random` seeded with the workload name and
the seed, and every number is written with a fixed format.

Sizes are fixed per workload and the seed only draws the details (issue
ranges, weights, stances, deadlines within a band, posting ticks). That keeps
the amount of work nearly the same from seed to seed, so timings taken on
different seeds can be compared.

Run `python3 agorabench/marketgen.py <workload> <seed>` to print a scenario.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Callable

STANCES = ("headstrong", "linear", "conceder")


@dataclass
class _Agenda:
    product: str
    t_max: int
    price: tuple[float, float]
    memory: tuple[float, float]
    price_weight: int  # hundredths; memory gets the rest


@dataclass
class _Agent:
    agent_id: str
    role: str
    stance: str
    agendas: list[_Agenda] = field(default_factory=list)


@dataclass
class _Posting:
    agent: str
    product: str
    posted_at: int


def _num(value: float) -> str:
    return f"{value:.2f}"


def _render(
    name: str,
    seed: int,
    t_end: int,
    agents: list[_Agent],
    ads: list[_Posting],
    rfqs: list[_Posting],
) -> str:
    # The scenario seed must be an unsigned 64-bit integer.
    out = [f"name: {name}", f"seed: {seed % 2**64}", f"t_end: {t_end}", "agents:"]
    for agent in agents:
        out.append(f"  - id: {agent.agent_id}")
        out.append(f"    role: {agent.role}")
        out.append(f"    tactic: {{stance: {agent.stance}, k: 0.0}}")
        out.append("    agendas:")
        for agenda in agent.agendas:
            w = agenda.price_weight
            out.append(f"      - product: {agenda.product}")
            out.append(f"        t_max: {agenda.t_max}")
            out.append("        issues:")
            out.append(
                f"          - {{id: price, weight: {w / 100:.2f}, "
                f"min: {_num(agenda.price[0])}, max: {_num(agenda.price[1])}}}"
            )
            out.append(
                f"          - {{id: memory, weight: {(100 - w) / 100:.2f}, "
                f"min: {_num(agenda.memory[0])}, max: {_num(agenda.memory[1])}}}"
            )
    out.append("advertisements:")
    for ad in ads:
        out.append(f"  - {{agent: {ad.agent}, product: {ad.product}, posted_at: {ad.posted_at}}}")
    out.append("rfqs:")
    for rfq in rfqs:
        out.append(
            f"  - {{agent: {rfq.agent}, product: {rfq.product}, "
            f"min_reputation: 0.0, posted_at: {rfq.posted_at}}}"
        )
    out.append("")
    return "\n".join(out)


def _range(rng: random.Random, lo: float, width: float, slack: float) -> tuple[float, float]:
    start = lo + rng.uniform(0.0, slack)
    return (start, start + width + rng.uniform(0.0, slack))


def _stances(rng: random.Random, count: int) -> list[str]:
    """Equal thirds of each stance in a per-seed order, so the mix is fixed."""
    dealt = [STANCES[i % len(STANCES)] for i in range(count)]
    rng.shuffle(dealt)
    return dealt


def dense_market(seed: int, agents: int = 36, products: int = 6) -> str:
    """Every agent trades 2 products; all postings at tick 0; all ranges overlap.

    Buyers and sellers each fill `agents` product slots, dealt round-robin over
    a per-seed shuffle of the products, so every product gets the same number
    of buyers and sellers when `agents` is a multiple of `products`. Every
    buyer then meets every seller of the product at once: agents**2/products
    short sessions that all close within about 25 ticks.
    """
    rng = random.Random(f"dense-market:{seed}")
    buyers = agents // 2
    sellers = agents - buyers
    roster: list[_Agent] = []
    ads: list[_Posting] = []
    rfqs: list[_Posting] = []
    for role, count, postings in (("buyer", buyers, rfqs), ("seller", sellers, ads)):
        order = rng.sample(range(products), products)
        stances = _stances(rng, count)
        for i in range(count):
            agent = _Agent(f"{role}-{i:04d}", role, stances[i])
            for slot in (2 * i, 2 * i + 1):
                product = f"p{order[slot % products]}"
                agent.agendas.append(
                    _Agenda(
                        product=product,
                        t_max=rng.randint(16, 24),
                        price=_range(rng, 10.0, 10.0, 2.0),
                        memory=_range(rng, 1.0, 48.0, 8.0),
                        price_weight=rng.randint(50, 70),
                    )
                )
                postings.append(_Posting(agent.agent_id, product, 0))
            roster.append(agent)
    return _render(f"dense-market-{agents}", seed, 64, roster, ads, rfqs)


def sparse_market(
    seed: int, products: int = 100, overlapping: int = 12, stagger: int = 150
) -> str:
    """Two buyers and two sellers per product, one product each, staggered.

    Buyers ask for price within [10, 20] (at least [11, 19]). On `overlapping`
    products drawn per seed one seller prices within [11, 19], so both of its
    pairs match and its offers fall inside the buyers' space; every other
    seller prices above every buyer, so the pair never matches yet is
    rescanned on every tick. The four agents of a product share one memory
    range. Ads and RFQs arrive at ticks drawn uniformly from [0, stagger).
    The four agents of an overlapping product post together, at one tick
    drawn from the first half: so both of its pairs always open a session
    (every seed has 2 * `overlapping` sessions, each closing once and so
    running one trust pass), and the sessions are over by the last posting,
    so every seed runs about `stagger` ticks.
    """
    rng = random.Random(f"sparse-market:{seed}")
    chosen = set(rng.sample(range(products), overlapping))
    early = max(1, stagger // 2)
    buyer_ids = rng.sample(range(2 * products), 2 * products)
    seller_ids = rng.sample(range(2 * products), 2 * products)
    stances = _stances(rng, 4 * products)
    roster: list[_Agent] = []
    ads: list[_Posting] = []
    rfqs: list[_Posting] = []
    for p in range(products):
        product = f"p{p:03d}"
        memory = _range(rng, 1.0, 48.0, 8.0)
        together = rng.randrange(early) if p in chosen else None
        for j in range(4):
            buyer = j < 2
            if buyer:
                agent_id = f"buyer-{buyer_ids[2 * p + j]:04d}"
                price = (10.0 + rng.uniform(0.0, 1.0), 20.0 - rng.uniform(0.0, 1.0))
            else:
                agent_id = f"seller-{seller_ids[2 * p + j - 2]:04d}"
                if p in chosen and j == 2:
                    price = _range(rng, 11.0, 7.0, 0.5)
                else:
                    price = _range(rng, 21.0, 10.0, 1.0)
            agent = _Agent(agent_id, "buyer" if buyer else "seller", stances[4 * p + j])
            agent.agendas.append(
                _Agenda(
                    product=product,
                    t_max=rng.randint(16, 24),
                    price=price,
                    memory=memory,
                    price_weight=rng.randint(50, 70),
                )
            )
            roster.append(agent)
            (rfqs if buyer else ads).append(
                _Posting(agent_id, product, rng.randrange(stagger) if together is None else together)
            )
    roster.sort(key=lambda a: a.agent_id)
    ads.sort(key=lambda a: (a.posted_at, a.agent))
    rfqs.sort(key=lambda r: (r.posted_at, r.agent))
    return _render(f"sparse-market-{4 * products}", seed, stagger + 64, roster, ads, rfqs)


def long_negotiation(seed: int, t_max: int = 4000) -> str:
    """Each of 2 buyers haggles with its own 3 sellers at once, identical ranges.

    All agents are linear, weigh both issues equally (so the per-issue
    exponents stay linear and adaptation never fires) and share the issue
    ranges. Deadlines lie within 5% of `t_max`, so each buyer's first
    agreement comes near t_max/2 ticks and every session carries one message
    per tick until then.
    """
    rng = random.Random(f"long-negotiation:{seed}")
    price = (10.0 + rng.uniform(0.0, 1.0), 22.0 + rng.uniform(0.0, 1.0))
    memory = (1.0 + rng.uniform(0.0, 2.0), 64.0 + rng.uniform(0.0, 8.0))
    spread = t_max // 20
    roster: list[_Agent] = []
    ads: list[_Posting] = []
    rfqs: list[_Posting] = []

    def agenda(product: str) -> _Agenda:
        return _Agenda(
            product=product,
            t_max=t_max + rng.randint(-spread, spread),
            price=price,
            memory=memory,
            price_weight=50,
        )

    for b in range(2):
        product = f"p{b}"
        buyer = _Agent(f"buyer-{b:04d}", "buyer", "linear", [agenda(product)])
        roster.append(buyer)
        rfqs.append(_Posting(buyer.agent_id, product, 0))
        for s in range(3):
            seller = _Agent(f"seller-{3 * b + s:04d}", "seller", "linear", [agenda(product)])
            roster.append(seller)
            ads.append(_Posting(seller.agent_id, product, 0))
    t_end = max(a.t_max for agent in roster for a in agent.agendas) + 16
    return _render("long-negotiation", seed, t_end, roster, ads, rfqs)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[..., str]
    tiny: dict  # sizes for smoke tests


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dense-market",
            # Every close triggers a trust pass over every agent and every
            # closed transcript, so a burst of short sessions loads the
            # watchdog far more than matchmaking.
            "burst of short sessions at tick 0; loads the trust watchdog",
            dense_market,
            {"agents": 8, "products": 2},
        ),
        Workload(
            "sparse-market",
            # Matchmaking rescans every RFQ against every ad on every tick,
            # most agents sit idle, and the scenario file is large: this
            # loads matchmaking, the idle agent sweep and the loader, through
            # staggered arrivals rather than one burst.
            "many agents, staggered postings, few overlapping pairs; loads matchmaking, idle steps and the loader",
            sparse_market,
            {"products": 6, "overlapping": 2, "stagger": 10},
        ),
        Workload(
            "long-negotiation",
            # Few agents and thousands of rounds: the per-message agent,
            # tactics and kernel work dominates, concurrent agreements are
            # resolved at the end, and trust sees a few closes over very long
            # transcripts (the opposite of dense-market).
            "few agents, thousands of rounds, concurrent sessions; loads agent, tactics and kernels",
            long_negotiation,
            {"t_max": 60},
        ),
    )
}


def generate(workload: str, seed: int, **sizes: int) -> str:
    """Scenario YAML text for `workload` at `seed`; `sizes` override defaults."""
    return WORKLOADS[workload].generate(seed, **sizes)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        print(f"usage: marketgen.py {{{','.join(WORKLOADS)}}} SEED", file=sys.stderr)
        sys.exit(2)
    sys.stdout.write(generate(sys.argv[1], int(sys.argv[2])))
