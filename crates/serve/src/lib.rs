//! dls-serve: an SLO-aware batching SVM inference + layout-scheduling
//! service.
//!
//! The paper's §V observation — blocked SMSV kernels amortise a format's
//! per-sweep overhead across many vectors — is applied here *across
//! clients*: concurrent single-vector `Predict` requests against the same
//! model are coalesced by a batching executor into one
//! [`dls_sparse::MatrixFormat::smsv_block`] sweep (up to
//! [`dls_sparse::MAX_SMSV_BLOCK`] vectors), with a short gather window
//! trading bounded latency for larger blocks. Because the blocked kernels
//! accumulate per row in a composition-independent order, coalesced
//! responses are bit-identical to per-vector evaluation.
//!
//! Coalescing is great for throughput but blind to urgency, so requests
//! carry a *class* ([`proto::RequestClass`]: interactive or batch) and an
//! optional per-request SLO on the wire. A pluggable
//! [`discipline::QueueDiscipline`] decides when the gather window breaks
//! and in what order classed queues drain — FIFO, strict priority, or the
//! default [`discipline::SloAware`], which holds the window only while no
//! queued interactive request would miss its deadline. A latency estimator
//! ([`latency::TreeLatencyEstimator`], a `dls-learn` CART regression over
//! the paper's nine influencing parameters plus batch size, calibrated
//! against real sweeps at start-up) feeds both that slack computation and
//! predictive admission control: requests whose projected completion
//! already overshoots their deadline are refused with `Busy` at submit
//! time instead of timing out in the queue.
//!
//! The service is std-only: a hand-rolled length-prefixed wire protocol
//! ([`proto`]), bounded per-model classed queues with reject-don't-buffer
//! backpressure and an interactive admission reserve ([`queue`]),
//! per-class SLO accounting, and graceful drain-on-shutdown. Telemetry
//! ([`stats`]) exposes request latencies, per-class SLO violation rates,
//! batch-size histograms, queue depths, and each model's scheduled layout.
//!
//! The serving path is failure-hardened end to end ([`fault`],
//! [`brownout`]): a seeded deterministic fault-injection plan can be
//! threaded through connection I/O, kernel execution, and the registry
//! (a no-op by default); connections carry read/write timeouts and
//! self-reap when idle; kernel panics are caught, isolated, and answered
//! with a per-model degradation ladder (healthy → degraded onto an
//! analytically-selected fallback layout → quarantined); the client side
//! classifies failures ([`client::ClientError`]) and
//! [`client::RetryClient`] reconnects with jittered exponential backoff
//! under a retry budget; and a brown-out controller sheds batch load,
//! shrinks the gather window, and swaps in the pessimistic
//! [`latency::AnalyticLatencyEstimator`] when the interactive SLO
//! violation rate or queue pressure crosses its threshold. Every fault
//! and degradation event is counted in the stats JSON, and a `Health`
//! request reports the live ladder.
//!
//! The I/O front end is selectable ([`server::Frontend`]): the classic
//! thread-per-connection handler, or the readiness-driven [`reactor`] —
//! one event-loop thread over a hand-rolled epoll wrapper
//! ([`reactor::poll`]) driving every connection as a nonblocking state
//! machine. Every frame is protocol v3 and carries a `frame_id`, so a
//! client (see [`client::PipelinedClient`]) can pipeline many requests on
//! one socket and take responses out of order as the executor finishes
//! them; a frame of any other version gets a typed error reply and the
//! connection stays open. The executor runs sharded per-model lanes with idle-worker
//! work stealing, and the reactor's gauges (open connections, in-flight
//! pipelined frames, steals, wakeups) land in the stats JSON.
//!
//! Layer map:
//!
//! ```text
//! client  ----v3 frames---->  server (threads: acceptor + connection
//!    |                          |    threads | reactor: epoll event loop,
//!    |  RetryClient:            |    read/write/idle timeouts,
//!    |  reconnect+backoff       |    FaultStream I/O wrapper)
//!    |  PipelinedClient:        |  admission: projected miss / queue
//!    |  many frames in flight   |  full / brown-out shed -> Busy
//!    |                          v
//!    |                       executor (sharded worker pool + stealing,
//!    |                          |       per-model ClassedQueues,
//!    |                          |       QueueDiscipline, catch_unwind
//!    |                          |       panic isolation, BrownoutController)
//!    |                          |  coalesce <= MAX_SMSV_BLOCK vectors
//!    |                          v
//!    |                       registry (ServedModel: scheduled +
//!    |                          |       instrumented support matrix,
//!    |                          |       health ladder + fallback layout)
//!    |                          v
//!    '--- typed errors      svm::predict_batch_with -> sparse::smsv_block
//! ```

pub mod brownout;
pub mod client;
pub mod discipline;
pub mod executor;
pub mod fault;
pub mod feedback;
pub mod latency;
pub mod proto;
pub mod queue;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod stats;

pub use brownout::{BrownoutConfig, BrownoutController, BrownoutTransition};
pub use client::{
    ClientError, PipelinedClient, PredictRequest, RetryClient, RetryPolicy, ScheduleRequest,
    ServeClient,
};
pub use discipline::{
    parse_discipline, Decision, DisciplineCtx, Fifo, QueueDiscipline, SloAware, StrictPriority,
    DISCIPLINES,
};
pub use executor::{Executor, ExecutorConfig};
pub use fault::{
    FaultAction, FaultInjector, FaultKind, FaultPlan, FaultSite, FaultStream, SplitMix64,
};
pub use feedback::{retrain_outcome_name, FeedbackConfig, FeedbackHub, RetrainOutcome};
pub use latency::{AnalyticLatencyEstimator, TreeLatencyEstimator};
pub use proto::{
    decode_request_framed, decode_response_framed, encode_request_framed, encode_response_framed,
    proto_error_of, ProtoError, Request, RequestClass, Response, MAX_FRAME_LEN, PROTO_VERSION,
};
pub use queue::{ClassedQueue, DrainOrder, DrainPlan, JobMeta, PushError};
pub use registry::{ModelHealth, ModelRegistry, ServedModel, QUARANTINE_PANICS};
pub use server::{start, Frontend, ServerConfig, ServerHandle};
pub use stats::{
    parse_block_hist, ClassStats, DegradeCounters, FaultCounters, ReactorCounters,
    SelectorCounters, ServeStats,
};
