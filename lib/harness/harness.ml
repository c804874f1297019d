(** Supervised batch execution (ISSUE 3 tentpole).

    The pieces, bottom-up:

    - {!Backoff}: exponential retry delays with deterministic jitter;
    - {!Breaker}: per-job-class circuit breaker
      (closed → open → half-open) with trips in the metrics registry;
    - {!Checkpoint}: fsync'd append-only line-JSON journal, the
      crash-safe record behind [--resume];
    - {!Worker}: one job in one forked process, wall-clock and memory
      watchdogs, exit status classified into a structured verdict;
    - {!Supervisor}: the one executor tying them together —
      concurrency, retry, shed, degrade, deadlines, poison, checkpoint —
      over a static job list or a streaming source (the compile
      service);
    - {!Campaign}: the seeded campaign kernel the chaos and compromise
      campaigns instantiate, in-process or on the supervisor.

    The same philosophy as the compiler it serves: treat each job as an
    open component characterized by its interactions (here: one
    marshaled result, one exit status), assume the environment can be
    hostile, and grade robustness instead of making it boolean. *)

module Backoff = Backoff
module Breaker = Breaker
module Checkpoint = Checkpoint
module Worker = Worker
module Supervisor = Supervisor
module Campaign = Campaign
