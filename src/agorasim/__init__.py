"""agorasim: deterministic marketplace-mediated negotiation simulator.

Cloud buyer and seller agents discover each other through a marketplace,
negotiate concurrently over weighted multi-issue agendas under hybrid
time/resource deadlines, and leave behind replayable transcripts plus
behavior/reputation scores.
"""

from .core import (
    Agenda,
    AgendaError,
    BadDeadlineError,
    BadRangeError,
    Direction,
    EmptyAgendaError,
    IssueSpec,
    MessageKind,
    MissingIssueError,
    NegotiationMessage,
    OfferPackage,
    OutOfRangeError,
    Perspective,
    ValidatedAgenda,
    WeightSumViolation,
    issue_score,
    restrict_agenda,
    validate_agenda,
)
from .kernels import BACKEND
from .tactics import (
    ResourceProjection,
    Response,
    ResponseKind,
    Stance,
    TacticParams,
    adapt_tactic,
    aggregate_utility,
    concession_rate,
    decide_response,
    effective_deadline,
    generate_offer_package,
    generate_offer_value,
    time_function,
)
from .agent import (
    AgentState,
    SessionEntry,
    agent_step,
    proxy_filter,
    resolve_concurrent_agreements,
)
from .marketplace import (
    AdvertisementRepository,
    Marketplace,
    TrustArchive,
    compute_behavior_norm,
    compute_reputation,
    match_alliances,
)
from .simulation import (
    Scenario,
    SimulationReport,
    emit_report,
    load_scenario,
    run_simulation,
)

__version__ = "0.1.0"
