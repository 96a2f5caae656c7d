//! `chat_stream`: 200k two-turn chat sessions over a shared 128-token system
//! prompt (`SharedPrefixChatSpec::simspeed`), streamed through
//! `run_streamed` on a paged + prefix-sharing replica with a 16k-token KV
//! pool, priced by `LinearCostModel`. The offered 8 sessions/s sits just
//! under the replica's knee, so the queue stays short (peak ~17) and the
//! run measures steady-state simulator speed, not overload collapse. The
//! event core, the block pool and the radix cache do nearly all the work;
//! the estimator does none.

use deca_serve::{LinearCostModel, ServingConfig, SharedPrefixChatSpec};

use crate::serving::{drive_layers, run_layers, run_outputs, simulate, DriveInputs};
use crate::trace::{SpanKind, Tracer};
use crate::{metric, Pass, Workload};

/// Sessions per pass.
const SESSIONS: usize = 200_000;
/// Offered session rate (sessions per simulated second).
const RATE: f64 = 8.0;
/// Decode batch limit of the replica.
const MAX_BATCH: usize = 64;
/// KV budget of the replica, tokens: 1024 blocks. The radix cache keeps the
/// pool full, so the pool sets the cache's working set, and at this size it
/// fits a core's private L2. A 100k-token pool put it in the shared
/// last-level cache, where other tenants' memory traffic slowed passes by
/// up to 50% on a shared 2-vCPU EPYC host; this pool loses little prefix
/// reuse (61.1M hit tokens against 62.3M on seed 1) and keeps the peak
/// queue at 17.
const KV_BUDGET: usize = 16_384;
/// Tokens per KV block.
const BLOCK_SIZE: usize = 16;
/// Leading requests of the stream the cache drives replay.
const DRIVE_REQUESTS: usize = 8_000;

/// The `chat_stream` workload.
pub struct ChatStream {
    spec: SharedPrefixChatSpec,
    config: ServingConfig,
    /// The first requests of the stream, replayed by the cache drives.
    drive: DriveInputs,
}

impl ChatStream {
    /// Builds the seeded session spec and the drives' request prefix.
    pub fn setup(seed: u64) -> Self {
        let spec = SharedPrefixChatSpec {
            seed,
            ..SharedPrefixChatSpec::simspeed(SESSIONS)
        }
        .with_rate(RATE);
        ChatStream {
            spec,
            config: ServingConfig::paged(MAX_BATCH, KV_BUDGET, BLOCK_SIZE)
                .with_prefix_sharing(true),
            drive: DriveInputs::new(spec.stream().take(DRIVE_REQUESTS)),
        }
    }
}

impl Workload for ChatStream {
    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        tracer.open("chat_stream.pass", SpanKind::Call);
        let mut run = simulate(
            tracer,
            LinearCostModel::default_70b(),
            self.config,
            self.spec.stream(),
        );
        let report = &run.report;
        let (summary, summary_s) =
            tracer.timed("serve.metrics", SpanKind::Call, |_| report.metrics());
        tracer.close();
        pass.wall_s = run.run_s + summary_s;

        run_outputs(&mut pass, "chat", report);
        pass.output("chat.p99_ttft_s", summary.ttft.p99_s);
        pass.invariants.push((
            "every session turn completes",
            report.completed() == self.spec.requests(),
        ));
        pass.invariants
            .push(("no request is rejected", report.rejected == 0));
        pass.figures = vec![metric(
            "sim_sessions_per_s",
            SESSIONS as f64 / pass.wall_s,
            "1/s",
        )];
        if tracer.is_enabled() {
            pass.layers = run_layers(&mut run, summary_s, BLOCK_SIZE);
            pass.layers
                .extend(drive_layers(tracer, &self.config, &self.drive));
        }
        pass
    }
}
