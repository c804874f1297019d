(** The compile service (ISSUE 8 tentpole): a long-running daemon that
    accepts compile requests over a Unix-domain socket, schedules them
    onto fork-isolated workers, and memoizes results in a
    content-addressed on-disk cache.

    The pieces, bottom-up:

    - {!Cache}: the content-addressed artifact store — atomic writes
      (tmp + fsync + rename), per-entry checksums, verify-on-read with
      quarantine, entries that stay valid across restarts;
    - {!Protocol}: the line-JSON wire protocol (requests, typed
      diagnostic replies) and its tolerant parser;
    - {!Engine}: one request compiled through the cache at pass
      granularity (summary hit → RTL resume → full pipeline);
    - {!Serve}: the daemon, a streaming job source on
      {!Harness.Supervisor} (which owns retries, the [-O0] lifeline,
      deadlines, poison quarantine, the circuit breaker and the
      journal) — admission (bounded queue, load-shedding, degrade
      watermark, poison rejects, warm hits), replies, SIGTERM drain,
      the poison reload on [--resume] — and the line-protocol client
      ([occo request]). *)

module Cache = Cache
module Protocol = Protocol
module Engine = Engine
module Serve = Serve
