//! Per-query profiling: the `EXPLAIN PROFILE`-style report attached to a
//! [`crate::QueryResult`] when [`crate::QueryOptions::profile`] is set.
//!
//! A [`QueryProfile`] unifies, for one query:
//!
//! * per-operator runtime stats (tuples, frames, bytes, per-partition
//!   wall times) from the executor,
//! * buffer-cache hits/misses/evictions attributed to *this query only*
//!   (via the scoped counters of [`asterix_storage::QueryCounters`] — not
//!   the racy global `reset_stats()` pattern, which breaks as soon as two
//!   queries run concurrently),
//! * index-search counters: inverted-list elements read, T-occurrence
//!   candidates (Table 6's column C), primary-index lookups, and the
//!   rows that survived post-verification (§4.1.1's candidate → verify
//!   funnel),
//! * LSM activity: disk components searched by this query, plus the
//!   instance-lifetime flush/merge totals for context,
//! * the optimizer's rule-firing trace.
//!
//! Rendered as structured JSON ([`QueryProfile::to_json_string`]) or as a
//! text tree over the job topology ([`QueryProfile::render_text`]).

use asterix_adm::Value;
use asterix_hyracks::{JobSpec, JobStats, OpId};
use asterix_storage::StorageProfile;
use std::time::Duration;

/// Runtime profile of one physical operator, aggregated over partitions.
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// Operator id in the job spec.
    pub id: OpId,
    /// Operator name (e.g. `"secondary-index-search"`).
    pub name: &'static str,
    /// Total tuples consumed across partitions.
    pub input_tuples: u64,
    /// Total tuples produced across partitions.
    pub output_tuples: u64,
    /// Frames this operator sent downstream (channel sends of up to
    /// `FRAME_CAPACITY` tuples).
    pub frames_emitted: u64,
    /// Heap bytes of the values sent downstream.
    pub bytes_emitted: u64,
    /// Wall time of every partition instance, sorted by partition.
    pub partition_times: Vec<(usize, Duration)>,
    /// Operators feeding this one, by input slot order.
    pub inputs: Vec<OpId>,
}

impl OpProfile {
    /// Longest per-partition wall time (critical-path contribution).
    pub fn max_partition_time(&self) -> Duration {
        self.partition_times
            .iter()
            .map(|(_, t)| *t)
            .max()
            .unwrap_or_default()
    }
}

/// Buffer-cache activity attributed to one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheProfile {
    /// Page reads served from the buffer cache.
    pub hits: u64,
    /// Page reads that went to simulated disk.
    pub misses: u64,
    /// Pages evicted to make room while this query ran.
    pub evictions: u64,
}

impl CacheProfile {
    /// hits / (hits + misses), or 0 when no reads happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Index-search funnel of one query: list scan → candidates → primary
/// lookups → verified survivors (§4.1.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexSearchProfile {
    /// Elements read from inverted lists. Postings served from the
    /// postings cache are *not* re-counted: this measures actual LSM
    /// range-scan work.
    pub inverted_elements_read: u64,
    /// Postings-list probes answered from the per-index postings cache.
    pub postings_cache_hits: u64,
    /// Postings-list probes that had to scan the LSM tree (and then
    /// populated the cache).
    pub postings_cache_misses: u64,
    /// Candidates emitted by T-occurrence searches (Table 6's column C).
    pub toccurrence_candidates: u64,
    /// Primary-index point lookups issued.
    pub primary_lookups: u64,
    /// Rows that survived the post-verification selects directly
    /// downstream of primary-index lookups.
    pub post_verification_survivors: u64,
}

/// Similarity-kernel activity of one query: how much of the verify and
/// candidate-generation work ran through the optimized kernels versus
/// the scalar fallbacks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelProfile {
    /// Edit-distance verifications answered by the Myers bit-parallel
    /// kernel (the remainder used the banded scalar DP).
    pub bitparallel_ed_calls: u64,
    /// Galloping (exponential-probe) binary searches performed by the
    /// full-intersection T-occurrence path.
    pub gallop_probes: u64,
    /// T-occurrence searches that fell back to the ScanCount kernel
    /// (threshold below list count, lists too short for DivideSkip).
    pub scancount_fallbacks: u64,
}

/// LSM activity: per-query component probes plus instance-lifetime
/// flush/merge totals (queries never flush; the totals give context on
/// how fragmented the trees were when the query ran).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LsmProfile {
    /// Disk components consulted by this query's point lookups.
    pub components_searched: u64,
    /// Flushes across all LSM trees since the instance started.
    pub total_flushes: u64,
    /// Merges across all LSM trees since the instance started.
    pub total_merges: u64,
}

/// Everything measured about one profiled query.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// The instance-wide query id this profile belongs to — the same
    /// key used by the running-query registry, the slow-query log, and
    /// trace exports.
    pub query_id: u64,
    /// Per-operator stats in job-spec order.
    pub operators: Vec<OpProfile>,
    /// Buffer-cache activity attributed to this query.
    pub cache: CacheProfile,
    /// Index-search funnel counters attributed to this query.
    pub index_search: IndexSearchProfile,
    /// Similarity-kernel counters attributed to this query.
    pub kernels: KernelProfile,
    /// LSM probes plus instance-lifetime flush/merge context.
    pub lsm: LsmProfile,
    /// Optimizer rule firings, in application order, with counts.
    pub rule_trace: Vec<(&'static str, usize)>,
    /// Parse + translate + optimize + job generation time.
    pub compile_time: Duration,
    /// Parallel execution wall time.
    pub execution_time: Duration,
}

impl QueryProfile {
    /// Assemble a profile from the compiled job, the executor's stats,
    /// and the query's scoped storage counters.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        query_id: u64,
        job: &JobSpec,
        stats: &JobStats,
        storage: StorageProfile,
        lsm_totals: (u64, u64),
        rule_trace: Vec<(&'static str, usize)>,
        compile_time: Duration,
        execution_time: Duration,
    ) -> QueryProfile {
        let mut operators = Vec::with_capacity(job.ops.len());
        for (id, op) in &job.ops {
            let mut inputs: Vec<(usize, OpId)> = job
                .edges
                .iter()
                .filter(|e| e.to == *id)
                .map(|e| (e.input, e.from))
                .collect();
            inputs.sort();
            let s = stats.per_op.get(id);
            let mut partition_times = s.map(|s| s.partition_times.clone()).unwrap_or_default();
            partition_times.sort();
            operators.push(OpProfile {
                id: *id,
                name: op.name(),
                input_tuples: s.map_or(0, |s| s.input_tuples),
                output_tuples: s.map_or(0, |s| s.output_tuples),
                frames_emitted: s.map_or(0, |s| s.frames_emitted),
                bytes_emitted: s.map_or(0, |s| s.bytes_emitted),
                partition_times,
                inputs: inputs.into_iter().map(|(_, from)| from).collect(),
            });
        }

        // Post-verification survivors: output of every select directly
        // downstream of a primary-index lookup (the verify step of the
        // candidate funnel).
        let lookup_ids: Vec<OpId> = operators
            .iter()
            .filter(|o| o.name == "primary-index-lookup")
            .map(|o| o.id)
            .collect();
        let survivors = operators
            .iter()
            .filter(|o| o.name == "select" && o.inputs.iter().any(|i| lookup_ids.contains(i)))
            .map(|o| o.output_tuples)
            .sum();

        QueryProfile {
            query_id,
            operators,
            cache: CacheProfile {
                hits: storage.cache_hits,
                misses: storage.cache_misses,
                evictions: storage.cache_evictions,
            },
            index_search: IndexSearchProfile {
                inverted_elements_read: storage.inverted_elements_read,
                postings_cache_hits: storage.postings_cache_hits,
                postings_cache_misses: storage.postings_cache_misses,
                toccurrence_candidates: storage.toccurrence_candidates,
                primary_lookups: storage.primary_lookups,
                post_verification_survivors: survivors,
            },
            kernels: KernelProfile {
                bitparallel_ed_calls: storage.bitparallel_ed_calls,
                gallop_probes: storage.gallop_probes,
                scancount_fallbacks: storage.scancount_fallbacks,
            },
            lsm: LsmProfile {
                components_searched: storage.lsm_components_searched,
                total_flushes: lsm_totals.0,
                total_merges: lsm_totals.1,
            },
            rule_trace,
            compile_time,
            execution_time,
        }
    }

    /// The first operator profile with the given name.
    pub fn operator(&self, name: &str) -> Option<&OpProfile> {
        self.operators.iter().find(|o| o.name == name)
    }

    /// The profile as an ADM record (serializable to JSON without any
    /// extra dependency via [`asterix_adm::json::to_string`]).
    pub fn to_json(&self) -> Value {
        let operators = Value::OrderedList(
            self.operators
                .iter()
                .map(|o| {
                    Value::record(vec![
                        ("id".into(), Value::Int64(o.id.0 as i64)),
                        ("name".into(), Value::from(o.name)),
                        ("input_tuples".into(), Value::Int64(o.input_tuples as i64)),
                        ("output_tuples".into(), Value::Int64(o.output_tuples as i64)),
                        ("frames_emitted".into(), Value::Int64(o.frames_emitted as i64)),
                        ("bytes_emitted".into(), Value::Int64(o.bytes_emitted as i64)),
                        (
                            "partition_times_us".into(),
                            Value::OrderedList(
                                o.partition_times
                                    .iter()
                                    .map(|(p, t)| {
                                        Value::OrderedList(vec![
                                            Value::Int64(*p as i64),
                                            Value::Int64(t.as_micros() as i64),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "inputs".into(),
                            Value::OrderedList(
                                o.inputs.iter().map(|i| Value::Int64(i.0 as i64)).collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Value::record(vec![
            ("query_id".into(), Value::Int64(self.query_id as i64)),
            ("operators".into(), operators),
            (
                "cache".into(),
                Value::record(vec![
                    ("hits".into(), Value::Int64(self.cache.hits as i64)),
                    ("misses".into(), Value::Int64(self.cache.misses as i64)),
                    ("evictions".into(), Value::Int64(self.cache.evictions as i64)),
                    ("hit_ratio".into(), Value::double(self.cache.hit_ratio())),
                ]),
            ),
            (
                "index_search".into(),
                Value::record(vec![
                    (
                        "inverted_elements_read".into(),
                        Value::Int64(self.index_search.inverted_elements_read as i64),
                    ),
                    (
                        "postings_cache_hits".into(),
                        Value::Int64(self.index_search.postings_cache_hits as i64),
                    ),
                    (
                        "postings_cache_misses".into(),
                        Value::Int64(self.index_search.postings_cache_misses as i64),
                    ),
                    (
                        "toccurrence_candidates".into(),
                        Value::Int64(self.index_search.toccurrence_candidates as i64),
                    ),
                    (
                        "primary_lookups".into(),
                        Value::Int64(self.index_search.primary_lookups as i64),
                    ),
                    (
                        "post_verification_survivors".into(),
                        Value::Int64(self.index_search.post_verification_survivors as i64),
                    ),
                ]),
            ),
            (
                "kernels".into(),
                Value::record(vec![
                    (
                        "bitparallel_ed_calls".into(),
                        Value::Int64(self.kernels.bitparallel_ed_calls as i64),
                    ),
                    (
                        "gallop_probes".into(),
                        Value::Int64(self.kernels.gallop_probes as i64),
                    ),
                    (
                        "scancount_fallbacks".into(),
                        Value::Int64(self.kernels.scancount_fallbacks as i64),
                    ),
                ]),
            ),
            (
                "lsm".into(),
                Value::record(vec![
                    (
                        "components_searched".into(),
                        Value::Int64(self.lsm.components_searched as i64),
                    ),
                    (
                        "total_flushes".into(),
                        Value::Int64(self.lsm.total_flushes as i64),
                    ),
                    (
                        "total_merges".into(),
                        Value::Int64(self.lsm.total_merges as i64),
                    ),
                ]),
            ),
            (
                "rule_trace".into(),
                Value::OrderedList(
                    self.rule_trace
                        .iter()
                        .map(|(name, n)| {
                            Value::record(vec![
                                ("rule".into(), Value::from(*name)),
                                ("fired".into(), Value::Int64(*n as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "compile_time_us".into(),
                Value::Int64(self.compile_time.as_micros() as i64),
            ),
            (
                "execution_time_us".into(),
                Value::Int64(self.execution_time.as_micros() as i64),
            ),
        ])
    }

    /// The profile as a JSON string.
    pub fn to_json_string(&self) -> String {
        asterix_adm::json::to_string(&self.to_json())
    }

    /// `EXPLAIN PROFILE`-style text: the operator tree (root = the result
    /// sink), each node annotated with its runtime stats, followed by the
    /// storage and optimizer sections.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("QUERY PROFILE (query_id {})\n", self.query_id));

        // Roots: operators nobody consumes (normally just result-sink).
        let consumed: Vec<OpId> = self.operators.iter().flat_map(|o| o.inputs.clone()).collect();
        let roots: Vec<OpId> = self
            .operators
            .iter()
            .map(|o| o.id)
            .filter(|id| !consumed.contains(id))
            .collect();
        for root in roots {
            self.render_node(&mut out, root, 0);
        }

        out.push_str(&format!(
            "cache: {} hits, {} misses ({:.1}% hit ratio), {} evictions\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_ratio() * 100.0,
            self.cache.evictions,
        ));
        out.push_str(&format!(
            "index search: {} list elements read, {} candidates, {} primary lookups, {} verified\n",
            self.index_search.inverted_elements_read,
            self.index_search.toccurrence_candidates,
            self.index_search.primary_lookups,
            self.index_search.post_verification_survivors,
        ));
        out.push_str(&format!(
            "postings cache: {} hits, {} misses\n",
            self.index_search.postings_cache_hits, self.index_search.postings_cache_misses,
        ));
        out.push_str(&format!(
            "kernels: {} bit-parallel ed calls, {} gallop probes, {} scancount fallbacks\n",
            self.kernels.bitparallel_ed_calls,
            self.kernels.gallop_probes,
            self.kernels.scancount_fallbacks,
        ));
        out.push_str(&format!(
            "lsm: {} components searched ({} flushes, {} merges lifetime)\n",
            self.lsm.components_searched, self.lsm.total_flushes, self.lsm.total_merges,
        ));
        out.push_str("rules:\n");
        for (rule, n) in &self.rule_trace {
            out.push_str(&format!("  {rule} x{n}\n"));
        }
        out.push_str(&format!(
            "compile {:?}, execute {:?}\n",
            self.compile_time, self.execution_time
        ));
        out
    }

    fn render_node(&self, out: &mut String, id: OpId, depth: usize) {
        let Some(o) = self.operators.iter().find(|o| o.id == id) else {
            return;
        };
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{}] in={} out={} frames={} bytes={} max_partition={:?}\n",
            o.name,
            o.id,
            o.input_tuples,
            o.output_tuples,
            o.frames_emitted,
            o.bytes_emitted,
            o.max_partition_time(),
        ));
        for input in &o.inputs {
            self.render_node(out, *input, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the JSON serialization contract: every key is emitted even
    /// when its value is zero/empty. Downstream consumers (snapshot
    /// differs, the CI validators) index these keys unconditionally, so a
    /// "skip zeros" optimization here would be a silent breaking change.
    #[test]
    fn to_json_emits_every_key_even_when_zero() {
        let zero = QueryProfile {
            query_id: 0,
            operators: Vec::new(),
            cache: CacheProfile::default(),
            index_search: IndexSearchProfile::default(),
            kernels: KernelProfile::default(),
            lsm: LsmProfile::default(),
            rule_trace: Vec::new(),
            compile_time: Duration::ZERO,
            execution_time: Duration::ZERO,
        };
        let json = zero.to_json_string();
        for key in [
            "\"query_id\"",
            "\"operators\"",
            "\"cache\"",
            "\"hits\"",
            "\"misses\"",
            "\"evictions\"",
            "\"hit_ratio\"",
            "\"index_search\"",
            "\"inverted_elements_read\"",
            "\"postings_cache_hits\"",
            "\"postings_cache_misses\"",
            "\"toccurrence_candidates\"",
            "\"primary_lookups\"",
            "\"post_verification_survivors\"",
            "\"kernels\"",
            "\"bitparallel_ed_calls\"",
            "\"gallop_probes\"",
            "\"scancount_fallbacks\"",
            "\"lsm\"",
            "\"components_searched\"",
            "\"total_flushes\"",
            "\"total_merges\"",
            "\"rule_trace\"",
            "\"compile_time_us\"",
            "\"execution_time_us\"",
        ] {
            assert!(json.contains(key), "zero-valued profile JSON dropped {key}: {json}");
        }
    }
}
