//! The shared answering engine: one code path from wire request to
//! [`Answer`](tsdist_eval::Answer), used verbatim by the live shard workers *and* the offline
//! journal replayer — which is what makes served answers byte-diffable
//! against a replay.
//!
//! An [`Engine`] owns a set of datasets and lazily-built per-`(dataset,
//! normalization)` state: the [`prepare`]d train split and its one
//! [`TrainIndex`] — the candidate-order sample table of pruned scans
//! plus the sublinear tier (PAA lower-bound cascade for banded DTW,
//! metric pivot tables for declared metrics) that every query row
//! consults before falling back to a scan over every candidate. Both
//! are built once at shard
//! prepare time and amortized across every batch the engine answers —
//! the point of shard-affine routing. The index also holds the plan
//! memory of [`Eval`]'s Auto scan, so what each bounded plan and Exact
//! cost on the split is measured once and shared by every later batch. Measures resolve once per spec and
//! persist, so stateful wrappers (fault-injection counters) behave like
//! a long-lived server process.
//!
//! Every evaluation runs with a cancel flag armed, so a measure that
//! panics (chaos testing) is caught by [`Eval`]'s typed-fault path and
//! surfaces as an `internal` response instead of killing the worker.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use tsdist_core::measure::Distance;
use tsdist_core::{IndexStats, TrainIndex};
use tsdist_data::Dataset;
use tsdist_eval::{prepare, CancelFlag, Eval, EvalError};

use crate::cache::{AnswerCache, CacheKey};
use crate::protocol::{norm_tag, ErrorCode, QueryRequest, Response};
use crate::supervisor::{IndexStatsCell, Quarantine};

/// Resolves a measure spec (e.g. `"ed"`, `"dtw:10"`) to a distance.
/// Injected by the embedder — the CLI passes its `measures::resolve`,
/// optionally wrapped in chaos fault injection; tests pass closures.
pub type MeasureResolver = Arc<dyn Fn(&str) -> Result<Box<dyn Distance>, String> + Send + Sync>;

/// Lazily-built per-`(dataset, normalization)` evaluation state.
struct PreparedEntry {
    /// The dataset with its train split already preprocessed (queries
    /// run with `assume_prepared`, so this work happens once).
    prepared: Dataset,
    /// The index over the prepared train split: its sample table orders
    /// pruned scans for every measure; `prepare_measure` adds the
    /// sublinear tier per served measure unless the engine was built
    /// with the index disabled.
    index: TrainIndex,
    /// Measure specs whose `prepare_measure` panicked (a declared metric
    /// regime that flunked sampled conformance). Remembered so the loud
    /// failure fires once; those measures serve through the linear plan.
    index_failed: BTreeSet<String>,
}

/// Requests that can be answered by one [`Eval`] call share a group.
/// Deadline-bearing requests get a singleton group (the `solo` member)
/// so one request's deadline never aborts its batch-mates.
// The derive expands to `partial_cmp` over integer/string fields only;
// the workspace ban targets NaN-unaware *float* comparison.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct GroupKey {
    dataset: String,
    measure: String,
    norm: &'static str,
    k: usize,
    pruned: bool,
    deadline_ms: Option<u64>,
    solo: usize,
}

impl GroupKey {
    fn of(q: &QueryRequest, position: usize) -> GroupKey {
        GroupKey {
            dataset: q.dataset.clone(),
            measure: q.measure.clone(),
            norm: norm_tag(q.norm),
            k: q.k,
            pruned: q.pruned,
            deadline_ms: q.deadline_ms,
            solo: if q.deadline_ms.is_some() {
                position
            } else {
                usize::MAX
            },
        }
    }
}

/// Owns datasets and answers batches of query requests.
pub struct Engine {
    datasets: BTreeMap<String, Dataset>,
    resolver: MeasureResolver,
    measures: BTreeMap<String, Box<dyn Distance>>,
    prepared: BTreeMap<(String, &'static str), PreparedEntry>,
    answers: AnswerCache,
    quarantine: Option<Arc<Quarantine>>,
    index_enabled: bool,
    index_stats: Option<Arc<IndexStatsCell>>,
}

impl Engine {
    /// An engine serving `datasets`, resolving measures through
    /// `resolver`, with an answer cache of `cache_cap` entries. The
    /// sublinear index tier is on by default.
    pub fn new(datasets: Vec<Dataset>, resolver: MeasureResolver, cache_cap: usize) -> Engine {
        Engine {
            datasets: datasets.into_iter().map(|d| (d.name.clone(), d)).collect(),
            resolver,
            measures: BTreeMap::new(),
            prepared: BTreeMap::new(),
            answers: AnswerCache::new(cache_cap),
            quarantine: None,
            index_enabled: true,
            index_stats: None,
        }
    }

    /// Enables or disables the index tier. Answers are byte-identical
    /// either way; disabling skips `prepare_measure`, so every row takes
    /// the exact or cutoff-threaded scan its request asks for.
    pub fn with_index(mut self, enabled: bool) -> Engine {
        self.index_enabled = enabled;
        self
    }

    /// Attaches a shared stats cell the engine keeps in sync with its
    /// index structures (the shard `health` report reads it). Zeroed on
    /// attach: a rebuilt engine starts with no structures, and the cell
    /// must say so until its entries are re-prepared.
    pub fn with_index_stats(mut self, cell: Arc<IndexStatsCell>) -> Engine {
        cell.store(IndexStats::default());
        self.index_stats = Some(cell);
        self
    }

    /// Totals of every prepared entry's index structures (all zero when
    /// the index tier is disabled).
    pub fn index_stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        if !self.index_enabled {
            return total;
        }
        for entry in self.prepared.values() {
            let s = entry.index.stats();
            total.series += s.series;
            total.dtw_bands += s.dtw_bands;
            total.pivot_tables += s.pivot_tables;
        }
        total
    }

    /// Attaches the shard's panic circuit breaker: quarantined measures
    /// are answered `measure_quarantined` without being invoked, and
    /// every typed measure fault is recorded against its spec. The
    /// breaker is shared across worker incarnations, so fault counts
    /// survive a shard restart.
    pub fn with_quarantine(mut self, quarantine: Arc<Quarantine>) -> Engine {
        self.quarantine = Some(quarantine);
        self
    }

    /// Names of the served datasets, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        self.datasets.keys().cloned().collect()
    }

    /// `(hits, misses)` of the answer cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.answers.stats()
    }

    /// Answers a batch of requests, one response per request in request
    /// order. Batching amortizes setup (grouped requests share a single
    /// [`Eval`] run) but never changes any answer: per-query results are
    /// independent of batch composition, which the e2e suite checks by
    /// byte-diffing against unbatched offline replay.
    pub fn answer_batch(&mut self, requests: &[QueryRequest]) -> Vec<Response> {
        let mut out: Vec<Option<Response>> = vec![None; requests.len()];
        // Each miss keeps its cache key until its answer is stored.
        let mut keys: Vec<Option<CacheKey>> = vec![None; requests.len()];
        let mut groups: BTreeMap<GroupKey, Vec<usize>> = BTreeMap::new();
        for (i, q) in requests.iter().enumerate() {
            let key = CacheKey::of(q);
            if let Some(answer) = self.answers.get(&key) {
                out[i] = Some(Response::Answer { id: q.id, answer });
                continue;
            }
            keys[i] = Some(key);
            groups.entry(GroupKey::of(q, i)).or_default().push(i);
        }
        for members in groups.values() {
            self.run_group(requests, members, &mut keys, &mut out);
        }
        out.into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or(Response::Error {
                    id: requests[i].id,
                    code: ErrorCode::Internal,
                    message: "request was not answered".to_string(),
                })
            })
            .collect()
    }

    /// Runs one group through a single [`Eval`] call, storing each
    /// answer under its member's cache key from `keys`.
    fn run_group(
        &mut self,
        requests: &[QueryRequest],
        members: &[usize],
        keys: &mut [Option<CacheKey>],
        out: &mut [Option<Response>],
    ) {
        fn fail(
            requests: &[QueryRequest],
            members: &[usize],
            out: &mut [Option<Response>],
            code: ErrorCode,
            message: &str,
        ) {
            for &i in members {
                out[i] = Some(Response::Error {
                    id: requests[i].id,
                    code,
                    message: message.to_string(),
                });
            }
        }

        let q0 = &requests[members[0]];
        if let Some(quarantine) = &self.quarantine {
            if quarantine.is_quarantined(&q0.measure) {
                let msg = format!(
                    "measure {:?} is quarantined on this shard after repeated faults",
                    q0.measure
                );
                return fail(requests, members, out, ErrorCode::MeasureQuarantined, &msg);
            }
        }
        let Some(ds) = self.datasets.get(&q0.dataset) else {
            let msg = format!("dataset {:?} is not served", q0.dataset);
            return fail(requests, members, out, ErrorCode::UnknownDataset, &msg);
        };
        if let Entry::Vacant(v) = self.measures.entry(q0.measure.clone()) {
            match (self.resolver)(&q0.measure) {
                Ok(m) => {
                    v.insert(m);
                }
                Err(msg) => {
                    return fail(requests, members, out, ErrorCode::UnknownMeasure, &msg);
                }
            }
        }
        let Some(measure) = self.measures.get(&q0.measure) else {
            return fail(
                requests,
                members,
                out,
                ErrorCode::Internal,
                "measure cache lookup failed",
            );
        };
        let measure: &dyn Distance = measure.as_ref();
        let key = (q0.dataset.clone(), norm_tag(q0.norm));
        let index_enabled = self.index_enabled;
        let entry = self.prepared.entry(key.clone()).or_insert_with(|| {
            let prepared = prepare(ds, q0.norm);
            // Shard prepare time: the index is built here, once per
            // (dataset, normalization), and reused by every batch.
            let index = TrainIndex::build(&prepared.train);
            PreparedEntry {
                prepared,
                index,
                index_failed: BTreeSet::new(),
            }
        });
        if index_enabled {
            let ix = &mut entry.index;
            if !entry.index_failed.contains(&q0.measure) {
                // `prepare_measure` fails loudly (panics) when a measure's
                // declared metric regime flunks sampled triangle-inequality
                // conformance. A served measure must not take the worker
                // down for that: contain it, remember the spec, and serve
                // it through the linear plan instead.
                let train = &entry.prepared.train;
                if catch_unwind(AssertUnwindSafe(|| ix.prepare_measure(measure, train))).is_err() {
                    entry.index_failed.insert(q0.measure.clone());
                }
            }
        }
        if let Some(cell) = &self.index_stats {
            cell.store(self.index_stats());
        }
        let Some(entry) = self.prepared.get(&key) else {
            return fail(
                requests,
                members,
                out,
                ErrorCode::Internal,
                "prepared-entry cache lookup failed",
            );
        };
        let queries: Vec<Vec<f64>> = members
            .iter()
            .map(|&i| requests[i].series.clone())
            .collect();
        // Always supply a cancel source: it arms Eval's typed-fault path,
        // so a panicking (chaos-injected) measure becomes an `internal`
        // response instead of unwinding through the worker.
        let flag = CancelFlag::new();
        let mut eval = Eval::new(measure)
            .on(&entry.prepared)
            .queries(&queries)
            .normalized(q0.norm)
            .k(q0.k)
            .pruned(q0.pruned)
            .assume_prepared(true)
            .indexed(&entry.index)
            .cancelled_by(&flag);
        if let Some(ms) = q0.deadline_ms {
            eval = eval.deadline(Duration::from_millis(ms));
        }
        match eval.run() {
            Ok(report) => {
                for (&i, answer) in members.iter().zip(report.answers) {
                    if let Some(key) = keys[i].take() {
                        self.answers.put(key, answer.clone());
                    }
                    out[i] = Some(Response::Answer {
                        id: requests[i].id,
                        answer,
                    });
                }
            }
            Err(e) => {
                if matches!(e, EvalError::Faulted { .. }) {
                    if let Some(quarantine) = &self.quarantine {
                        quarantine.record_fault(&q0.measure);
                    }
                }
                let (code, message) = classify(&e);
                fail(requests, members, out, code, &message);
            }
        }
    }
}

/// Maps an evaluation error to its wire code; the message is the
/// error's own wording.
fn classify(e: &EvalError) -> (ErrorCode, String) {
    let code = match e {
        EvalError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        _ => ErrorCode::Internal,
    };
    (code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdist_core::lockstep::Euclidean;
    use tsdist_core::normalization::Normalization;
    use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};

    fn resolver() -> MeasureResolver {
        Arc::new(|spec: &str| match spec {
            "ed" => Ok(Box::new(Euclidean) as Box<dyn Distance>),
            other => Err(format!("unknown measure {other:?}")),
        })
    }

    fn query(id: u64, dataset: &str, series: Vec<f64>) -> QueryRequest {
        QueryRequest {
            id,
            dataset: dataset.into(),
            measure: "ed".into(),
            norm: Normalization::ZScore,
            k: 1,
            pruned: true,
            series,
            deadline_ms: None,
        }
    }

    #[test]
    fn batched_answers_match_the_offline_evaluator() {
        let ds = generate_dataset(&ArchiveConfig::quick(1, 11), 0);
        let queries: Vec<QueryRequest> = ds
            .test
            .iter()
            .enumerate()
            .map(|(i, s)| query(i as u64 + 1, &ds.name, s.clone()))
            .collect();
        let mut engine = Engine::new(vec![ds.clone()], resolver(), 64);
        let responses = engine.answer_batch(&queries);

        let offline = Eval::new(&Euclidean)
            .on(&ds)
            .queries(&ds.test)
            .pruned(true)
            .run()
            .expect("offline evaluation");
        for (r, expect) in responses.iter().zip(&offline.answers) {
            match r {
                Response::Answer { answer, .. } => assert_eq!(answer, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn cache_hits_are_byte_identical_to_recomputation() {
        let ds = generate_dataset(&ArchiveConfig::quick(1, 11), 0);
        let q = query(1, &ds.name, ds.test[0].clone());
        let mut engine = Engine::new(vec![ds], resolver(), 64);
        let first = engine.answer_batch(std::slice::from_ref(&q));
        let second = engine.answer_batch(std::slice::from_ref(&q));
        assert_eq!(first, second);
        assert_eq!(engine.cache_stats(), (1, 1));
    }

    #[test]
    fn index_tier_is_on_by_default_and_byte_identical_to_linear_serving() {
        let ds = generate_dataset(&ArchiveConfig::quick(1, 11), 0);
        let queries: Vec<QueryRequest> = ds
            .test
            .iter()
            .enumerate()
            .map(|(i, s)| query(i as u64 + 1, &ds.name, s.clone()))
            .collect();
        let mut indexed = Engine::new(vec![ds.clone()], resolver(), 0);
        let mut linear = Engine::new(vec![ds], resolver(), 0).with_index(false);
        assert_eq!(
            indexed.answer_batch(&queries),
            linear.answer_batch(&queries)
        );
        // Euclidean is a declared metric: the indexed engine must hold a
        // conformance-checked pivot table; the linear engine holds none.
        let stats = indexed.index_stats();
        assert!(stats.series > 0);
        assert!(stats.pivot_tables > 0);
        assert_eq!(linear.index_stats(), IndexStats::default());
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let ds = generate_dataset(&ArchiveConfig::quick(1, 11), 0);
        let name = ds.name.clone();
        let mut engine = Engine::new(vec![ds], resolver(), 64);

        let bad_ds = query(1, "nope", vec![1.0, 2.0]);
        let mut bad_measure = query(2, &name, vec![1.0, 2.0]);
        bad_measure.measure = "nope".into();
        let responses = engine.answer_batch(&[bad_ds, bad_measure]);
        assert!(matches!(
            responses[0],
            Response::Error {
                code: ErrorCode::UnknownDataset,
                ..
            }
        ));
        assert!(matches!(
            responses[1],
            Response::Error {
                code: ErrorCode::UnknownMeasure,
                ..
            }
        ));
    }
}
