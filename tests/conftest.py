"""Shared builders for the test suite."""

from __future__ import annotations

import dataclasses
import typing

import pytest
from hypothesis import strategies as st

from agorasim.core import (
    Agenda,
    Direction,
    IssueSpec,
    MessageKind,
    NegotiationMessage,
    OfferPackage,
    Perspective,
    validate_agenda,
)
from agorasim.agent import AgentState, SessionEntry
from agorasim.tactics import ResourceProjection, Stance, TacticParams


def make_issue(
    issue_id: str = "price",
    weight: float = 1.0,
    lo: float = 10.0,
    hi: float = 20.0,
    direction: Direction = Direction.ASCENDING,
) -> IssueSpec:
    return IssueSpec(
        issue_id=issue_id,
        weight=weight,
        min_value=lo,
        max_value=hi,
        direction=direction,
    )


def make_agenda(*issues: IssueSpec, t_max: int = 20) -> Agenda:
    if not issues:
        issues = (make_issue(),)
    return validate_agenda(Agenda(issues=tuple(issues), t_max=t_max))


#: Issue ids the generated agendas draw from.
ISSUE_POOL = ("price", "memory", "disk", "cpu", "bandwidth", "latency")


@st.composite
def agendas(draw):
    """Validated agendas of 1 to 5 issues from ISSUE_POOL."""
    ids = draw(st.lists(st.sampled_from(ISSUE_POOL), min_size=1, max_size=5, unique=True))
    raw = [draw(st.floats(0.01, 1.0)) for _ in ids]
    specs = []
    for issue_id, w in zip(ids, raw):
        lo = draw(st.floats(-1e6, 1e6))
        width = draw(st.floats(1e-3, 1e6))
        direction = draw(st.sampled_from(Direction))
        specs.append(IssueSpec(issue_id, w / sum(raw), lo, lo + width, direction))
    return validate_agenda(Agenda(issues=tuple(specs), t_max=draw(st.integers(0, 5000))))


# Scalars as a JSON writer must take them: non-ASCII, quotes, backslashes,
# control characters, U+2028, spaces and the format metacharacters % { };
# non-finite and extreme floats, -0.0, large ints and bools.
json_text = st.text(st.sampled_from('ab -é€😀"\\/\x00\x1f\n\t\u2028%{}'), max_size=6)
json_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]),
)
json_ints = st.one_of(st.integers(-(10**20), 10**20), st.booleans())
JSON_SCALARS = {str: json_text, float: json_floats, int: json_ints, type(None): st.none()}


def from_fields(cls: type, values: dict = JSON_SCALARS) -> st.SearchStrategy:
    """Records of dataclass `cls`, each field drawn by its annotated type.

    `values` maps a type to its strategy. Optional[X] draws from both arms,
    tuple[X, ...] and list[X] draw up to three Xs, and a dataclass field is
    built the same way. A type with neither rule nor entry is a KeyError,
    so a field added later fails the tests until they give it values.
    """
    hints = typing.get_type_hints(cls)

    def of(tp):
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if origin is typing.Union:
            return st.one_of(*map(of, args))
        if origin in (tuple, list):
            return st.lists(of(args[0]), max_size=3).map(origin)
        if dataclasses.is_dataclass(tp):
            return from_fields(tp, values)
        return values[tp]

    return st.builds(cls, **{f.name: of(hints[f.name]) for f in dataclasses.fields(cls)})


def make_offer(
    session: str = "s-1",
    sender: str = "seller-1",
    receiver: str = "buyer-1",
    round: int = 0,
    sent_at: int = 1,
    values: dict | None = None,
) -> NegotiationMessage:
    return NegotiationMessage(
        session=session,
        sender=sender,
        receiver=receiver,
        round=round,
        sent_at=sent_at,
        kind=MessageKind.OFFER,
        package=OfferPackage(values=values if values is not None else {"price": 15.0}),
    )


def make_entry(
    session: str = "s-1",
    opponent: str = "seller-1",
    product: str = "vm",
    role: Perspective = Perspective.BUYER,
    agenda: Agenda | None = None,
    t0: int = 0,
    t_max_eff: float = 20.0,
    initiator: bool = False,
) -> SessionEntry:
    return SessionEntry(
        session=session,
        opponent=opponent,
        product=product,
        role=role,
        agenda=agenda if agenda is not None else make_agenda(),
        t0=t0,
        t_max_eff=t_max_eff,
        initiator=initiator,
    )


def make_agent(
    agent_id: str = "buyer-1",
    role: Perspective = Perspective.BUYER,
    tactic: TacticParams | None = None,
    resources: ResourceProjection | None = None,
    **kwargs,
) -> AgentState:
    return AgentState(
        agent_id=agent_id,
        role=role,
        tactic=tactic if tactic is not None else TacticParams(),
        resources=resources if resources is not None else ResourceProjection(),
        **kwargs,
    )


BILATERAL_SCENARIO = """
name: bilateral
t_end: 64
agents:
  - id: buyer-1
    role: buyer
    tactic: {stance: conceder, k: 0.0, beta: 5}
    agendas:
      - product: vm
        t_max: 20
        issues:
          - {id: price, weight: 1.0, min: 10, max: 20}
  - id: seller-1
    role: seller
    tactic: {stance: conceder, k: 0.0, beta: 5}
    agendas:
      - product: vm
        t_max: 20
        issues:
          - {id: price, weight: 1.0, min: 10, max: 20}
advertisements:
  - {agent: seller-1, product: vm}
rfqs:
  - {agent: buyer-1, product: vm}
"""

DISJOINT_SCENARIO = """
name: disjoint
t_end: 64
options: {require_overlap: false}
agents:
  - id: buyer-1
    role: buyer
    tactic: {stance: conceder, k: 0.0, beta: 5}
    agendas:
      - product: vm
        t_max: 20
        issues:
          - {id: price, weight: 1.0, min: 10, max: 20}
  - id: seller-1
    role: seller
    tactic: {stance: conceder, k: 0.0, beta: 5}
    agendas:
      - product: vm
        t_max: 20
        issues:
          - {id: price, weight: 1.0, min: 30, max: 40}
advertisements:
  - {agent: seller-1, product: vm}
rfqs:
  - {agent: buyer-1, product: vm}
"""


@pytest.fixture
def bilateral_scenario_text() -> str:
    return BILATERAL_SCENARIO


@pytest.fixture
def disjoint_scenario_text() -> str:
    return DISJOINT_SCENARIO
