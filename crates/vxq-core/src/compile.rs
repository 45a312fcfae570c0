//! Physical planning: optimized logical plan → [`dataflow::JobSpec`].
//!
//! This is the part of Algebricks the paper calls the "physical plan
//! optimizer": it fuses chains of ASSIGN/SELECT/UNNEST into stages,
//! inserts exchange connectors at GROUP-BY / AGGREGATE / JOIN boundaries,
//! applies **two-step aggregation** when enabled ("each partition can
//! calculate locally the count function on its data; then a central node
//! can compute the final result", §4.3), extracts hash-join keys from the
//! join condition, and prunes dead columns between operators so naive
//! plans don't carry materialized sequences in every tuple (Algebricks
//! does the same).
//!
//! | logical shape | physical realization |
//! |---|---|
//! | `DATASCAN(project)` | partitioned projecting file scan |
//! | `DATASCAN(project, filter)` | the same scan, writing only the records the filter keeps ([`crate::tapefilter::keeps`]) |
//! | `ASSIGN collection` (naive) | single-partition whole-collection scan |
//! | `GROUP-BY + AGGREGATE sequence` | hash exchange + materializing group-by |
//! | `GROUP-BY + incremental agg` | [local group-by +] hash exchange + group-by |
//! | `GROUP-BY + side-partial` | local partial group-by (the join above merges the partials) |
//! | `AGGREGATE` | [local aggregate +] merge-to-one + aggregate |
//! | `JOIN` | drop keys `eq` never matches + hash exchanges on extracted keys + hash join |

use crate::aggs::{AggFactory, Fold};
use crate::error::{EngineError, Result};
use crate::pool::ScanBufferPool;
use crate::rtexpr::RtExpr;
use crate::scan::{
    resolve_collection, EmptyTupleSourceFactory, ProjectedScanFactory, ScanOptions,
    WholeCollectionScanFactory,
};
use algebra::expr::{AggFunc, Function, LogicalExpr};
use algebra::plan::{LogicalOp, LogicalPlan, VarGen, VarId};
use dataflow::job::{
    Connector, JobSpec, Parallelism, PipeFactory, Stage, StageId, StageInput, StageKind,
    TwoInputFactory, TwoInputOp,
};
use dataflow::ops::eval::{ScalarEvaluator, ScanSourceFactory, UnnestEvaluator};
use dataflow::ops::{
    AggregateOp, AssignOp, BoxWriter, HashGroupByOp, HashJoinOp, MaterializingGroupByOp, ProjectOp,
    SelectOp, UnnestOp,
};
use dataflow::{ClusterSpec, DataflowError, TaskContext, TupleRef};
use jdm::binary::{tag, write_item, ItemRef};
use jdm::Item;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Compiler inputs beyond the plan itself.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Directory that collection paths resolve under.
    pub data_root: PathBuf,
    /// Cluster shape the DATASCANs place their splits over.
    pub cluster: ClusterSpec,
    /// Enable two-step (local/global) aggregation.
    pub two_step_aggregation: bool,
    /// DATASCAN split behaviour (intra-file parallelism).
    pub scan: ScanOptions,
    /// Shared scan buffer pool (owned by the engine, reused across
    /// queries).
    pub pool: Arc<ScanBufferPool>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            data_root: PathBuf::from("."),
            cluster: ClusterSpec::default(),
            two_step_aggregation: true,
            scan: ScanOptions::default(),
            pool: Arc::new(ScanBufferPool::new()),
        }
    }
}

/// Canonical identity of a compiled query: the cache key of the serving
/// layer's plan cache. Two queries share an optimized plan exactly when
/// their normalized text, active rule families, and scan behaviour all
/// match — `data_root` and cluster shape are engine-wide, so a cache held
/// per engine need not key on them.
pub fn plan_cache_key(
    query: &str,
    rules: &algebra::rules::RuleConfig,
    scan: &ScanOptions,
) -> String {
    format!("{}\u{1}{rules:?}\u{1}{scan:?}", normalize_query(query))
}

/// Collapse insignificant whitespace so formatting variants of one query
/// hit the same cache entry. Conservative: quoted strings are preserved
/// verbatim, everything outside them has its whitespace runs collapsed to
/// one space.
pub fn normalize_query(query: &str) -> String {
    let mut out = String::with_capacity(query.len());
    let mut in_str = false;
    let mut pending_space = false;
    for c in query.chars() {
        if in_str {
            out.push(c);
            if c == '"' {
                in_str = false;
            }
            continue;
        }
        if c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        out.push(c);
        if c == '"' {
            in_str = true;
        }
    }
    out
}

/// Compile an optimized logical plan into an executable job.
pub fn compile_plan(plan: &LogicalPlan, opts: &CompileOptions) -> Result<JobSpec> {
    let mut job = JobSpec::new();
    let mut c = Compiler {
        opts,
        gen: VarGen::above(&plan.root),
    };
    let pipeline = c.compile_op(&plan.root, &HashSet::new(), &mut job)?;
    seal(pipeline, &mut job);
    job.validate().map_err(EngineError::Execute)?;
    Ok(job)
}

// ---------------------------------------------------------------- steps

/// One fused operator inside a stage chain.
#[derive(Clone)]
enum StepSpec {
    Assign(RtExpr),
    Select(RtExpr),
    /// `kind` distinguishes `iterate` (sequence fan-out) from
    /// `keys-or-members` over the evaluated argument.
    Unnest {
        kind: UnnestKind,
        arg: RtExpr,
    },
    /// Per-tuple nested aggregation (compiled SUBPLAN).
    SubplanAgg {
        func: AggFunc,
        seq: RtExpr,
        arg: RtExpr,
    },
    /// Stream aggregation (whole input → one tuple).
    Aggregate {
        func: AggFunc,
        arg: RtExpr,
    },
    HashGroupBy {
        key_fields: Vec<usize>,
        func: AggFunc,
        arg: RtExpr,
    },
    MatGroupBy {
        key_fields: Vec<usize>,
        seq_field: usize,
    },
    /// Materializing sort; keys are `(expr, ascending)`.
    Sort {
        keys: Vec<(RtExpr, bool)>,
    },
    Project(Vec<usize>),
    /// Keep tuples whose canonical join keys (these fields) can equal
    /// another value under `eq`: see [`JoinableKeys`].
    JoinableKeys(Vec<usize>),
}

#[derive(Clone, Copy)]
enum UnnestKind {
    Iterate,
    KeysOrMembers,
}

/// Chain factory: builds the fused operators back-to-front.
struct ChainFactory {
    steps: Vec<StepSpec>,
}

impl PipeFactory for ChainFactory {
    fn create(&self, ctx: &TaskContext, out: BoxWriter) -> dataflow::Result<BoxWriter> {
        build_chain(&self.steps, ctx, out)
    }
}

fn build_chain(
    steps: &[StepSpec],
    ctx: &TaskContext,
    out: BoxWriter,
) -> dataflow::Result<BoxWriter> {
    let mut writer = out;
    for step in steps.iter().rev() {
        // Each fused operator gets its own profiling probe; `out` (the
        // exchange sender / collector) was instrumented by the runtime, so
        // probes sit between every pair of adjacent operators.
        writer = ctx.instrument(match step.clone() {
            StepSpec::Assign(expr) => Box::new(AssignOp::new(
                Box::new(ExprEval(expr)),
                ctx.frame_size,
                writer,
            )),
            StepSpec::Select(cond) => Box::new(SelectOp::new(
                Box::new(ExprEval(cond)),
                ctx.frame_size,
                writer,
            )),
            StepSpec::Unnest { kind, arg } => Box::new(UnnestOp::new(
                Box::new(UnnestEval { kind, arg }),
                ctx.frame_size,
                writer,
            )),
            StepSpec::SubplanAgg { func, seq, arg } => Box::new(AssignOp::new(
                Box::new(SubplanAggEval { func, seq, arg }),
                ctx.frame_size,
                writer,
            )),
            StepSpec::Aggregate { func, arg } => {
                let factory = AggFactory {
                    func,
                    arg: Arc::new(arg),
                };
                use dataflow::ops::eval::AggregatorFactory as _;
                Box::new(AggregateOp::new(factory.create(), ctx.frame_size, writer))
            }
            StepSpec::HashGroupBy {
                key_fields,
                func,
                arg,
            } => {
                let op = HashGroupByOp::new(
                    key_fields,
                    Arc::new(AggFactory {
                        func,
                        arg: Arc::new(arg),
                    }),
                    ctx.spill_handle("HASH-GROUP-BY"),
                    ctx.frame_size,
                    writer,
                );
                // The join above a side partial merges any number of
                // rows of a key, so its group-by may pass tuples through
                // ungrouped.
                Box::new(if func == AggFunc::SidePartial {
                    op.partial()
                } else {
                    op
                })
            }
            StepSpec::MatGroupBy {
                key_fields,
                seq_field,
            } => Box::new(MaterializingGroupByOp::new(
                key_fields,
                seq_field,
                ctx.spill_handle("MAT-GROUP-BY"),
                ctx.frame_size,
                writer,
            )),
            StepSpec::Sort { keys } => {
                let evals: Vec<(Box<dyn ScalarEvaluator>, bool)> = keys
                    .into_iter()
                    .map(|(e, asc)| (Box::new(ExprEval(e)) as Box<dyn ScalarEvaluator>, asc))
                    .collect();
                Box::new(dataflow::ops::SortOp::new(
                    evals,
                    ctx.spill_handle("SORT"),
                    ctx.frame_size,
                    writer,
                ))
            }
            StepSpec::Project(keep) => Box::new(ProjectOp::new(keep, ctx.frame_size, writer)),
            StepSpec::JoinableKeys(fields) => Box::new(SelectOp::new(
                Box::new(JoinableKeys(fields)),
                ctx.frame_size,
                writer,
            )),
        });
    }
    Ok(writer)
}

// ----------------------------------------------------------- evaluators

/// Scalar evaluator over a compiled expression.
struct ExprEval(RtExpr);

impl ScalarEvaluator for ExprEval {
    fn eval(&mut self, tuple: &TupleRef<'_>, out: &mut Vec<u8>) -> dataflow::Result<()> {
        self.0
            .eval_ref(tuple, None)
            .map_err(|e| DataflowError::Eval(e.to_string()))?
            .write(out);
        Ok(())
    }
}

/// True when every canonical join key field of the tuple can equal a
/// value under `eq`. An empty key, an array and an object equal nothing,
/// so their tuples cannot join; byte equality alone would pair two empty
/// keys, or two equal arrays. A key of several items is kept: `eq` is
/// existential over it, which one hash lookup cannot answer, so the join
/// matches it by the whole sequence.
struct JoinableKeys(Vec<usize>);

impl ScalarEvaluator for JoinableKeys {
    fn eval(&mut self, tuple: &TupleRef<'_>, out: &mut Vec<u8>) -> dataflow::Result<()> {
        let joinable = self.0.iter().all(|&f| {
            ItemRef::new(tuple.field(f)).is_ok_and(|key| match key.tag() {
                tag::ARRAY | tag::OBJECT => false,
                tag::SEQUENCE => key.count() != Some(0),
                _ => true,
            })
        });
        out.push(if joinable { tag::TRUE } else { tag::FALSE });
        Ok(())
    }
}

/// Unnesting evaluator: `iterate` or `keys-or-members` over an argument.
struct UnnestEval {
    kind: UnnestKind,
    arg: RtExpr,
}

impl UnnestEvaluator for UnnestEval {
    fn eval(
        &mut self,
        tuple: &TupleRef<'_>,
        emit: &mut dyn FnMut(&[u8]) -> dataflow::Result<()>,
    ) -> dataflow::Result<()> {
        let base = self
            .arg
            .eval(tuple)
            .map_err(|e| DataflowError::Eval(e.to_string()))?;
        let mut buf = Vec::new();
        match self.kind {
            UnnestKind::Iterate => {
                for it in base.iter_sequence() {
                    buf.clear();
                    write_item(it, &mut buf);
                    emit(&buf)?;
                }
            }
            UnnestKind::KeysOrMembers => {
                let kom = crate::rtexpr::keys_or_members(&base);
                for it in kom.iter_sequence() {
                    buf.clear();
                    write_item(it, &mut buf);
                    emit(&buf)?;
                }
            }
        }
        Ok(())
    }
}

/// Compiled SUBPLAN: fold an aggregate over the items of a sequence
/// expression, evaluating `arg` once per item (bound to
/// [`crate::rtexpr::EXTRA_FIELD`]).
struct SubplanAggEval {
    func: AggFunc,
    seq: RtExpr,
    arg: RtExpr,
}

impl SubplanAggEval {
    fn fold(&self, tuple: &TupleRef<'_>) -> Result<Item> {
        let mut fold = Fold::new(self.func);
        for member in self.seq.eval(tuple)?.iter_sequence() {
            fold.push(&self.arg.eval_ref(tuple, Some(member))?.into_item()?)?;
        }
        Ok(fold.finish())
    }
}

impl ScalarEvaluator for SubplanAggEval {
    fn eval(&mut self, tuple: &TupleRef<'_>, out: &mut Vec<u8>) -> dataflow::Result<()> {
        let result = self
            .fold(tuple)
            .map_err(|e| DataflowError::Eval(e.to_string()))?;
        write_item(&result, out);
        Ok(())
    }
}

/// Join factory: hash join plus an optional residual filter.
struct JoinChainFactory {
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    residual: Option<RtExpr>,
}

impl TwoInputFactory for JoinChainFactory {
    fn create(&self, ctx: &TaskContext, out: BoxWriter) -> dataflow::Result<Box<dyn TwoInputOp>> {
        let out = match &self.residual {
            Some(cond) => ctx.instrument(Box::new(SelectOp::new(
                Box::new(ExprEval(cond.clone())),
                ctx.frame_size,
                out,
            ))),
            None => out,
        };
        Ok(Box::new(HashJoinOp::new(
            self.build_keys.clone(),
            self.probe_keys.clone(),
            ctx.spill_handle("HASH-JOIN"),
            ctx.frame_size,
            out,
        )))
    }
}

// ------------------------------------------------------------- pipeline

enum PipeInput {
    Source(Arc<dyn ScanSourceFactory>),
    Stage { from: StageId, connector: Connector },
}

struct Pipeline {
    input: PipeInput,
    steps: Vec<StepSpec>,
    schema: Vec<VarId>,
    parallelism: Parallelism,
}

fn seal(p: Pipeline, job: &mut JobSpec) -> StageId {
    let chain = Arc::new(ChainFactory { steps: p.steps });
    let kind = match p.input {
        PipeInput::Source(scan) => StageKind::Source { scan, chain },
        PipeInput::Stage { from, connector } => StageKind::Pipe {
            input: StageInput { from, connector },
            chain,
        },
    };
    job.add(Stage {
        kind,
        parallelism: p.parallelism,
    })
}

// ------------------------------------------------------------- compiler

struct Compiler<'a> {
    opts: &'a CompileOptions,
    gen: VarGen,
}

/// Variables referenced by an expression.
fn expr_vars(e: &LogicalExpr) -> Vec<VarId> {
    let mut v = Vec::new();
    e.collect_vars(&mut v);
    v
}

/// Unwrap `promote(data(Const))` scaffolding down to a string constant.
fn const_string(e: &LogicalExpr) -> Option<&str> {
    match e {
        LogicalExpr::Const(Item::String(s)) => Some(s),
        LogicalExpr::Call(Function::Promote | Function::Data, args) if args.len() == 1 => {
            const_string(&args[0])
        }
        _ => None,
    }
}

impl<'a> Compiler<'a> {
    fn field_of(schema: &[VarId], v: VarId) -> Result<usize> {
        schema
            .iter()
            .position(|x| *x == v)
            .ok_or_else(|| EngineError::Compile(format!("variable {v} not in schema {schema:?}")))
    }

    /// Drop dead columns: keep only `live` variables (plus everything when
    /// `live` is empty, which only happens at the root).
    fn prune(p: &mut Pipeline, live: &HashSet<VarId>) {
        if live.is_empty() {
            return;
        }
        let keep: Vec<usize> = (0..p.schema.len())
            .filter(|&i| live.contains(&p.schema[i]))
            .collect();
        if keep.len() == p.schema.len() {
            return;
        }
        p.schema = keep.iter().map(|&i| p.schema[i]).collect();
        p.steps.push(StepSpec::Project(keep));
    }

    /// Compile an operator subtree. `live` is the set of variables any
    /// operator *above* this one still needs.
    fn compile_op(
        &mut self,
        op: &LogicalOp,
        live: &HashSet<VarId>,
        job: &mut JobSpec,
    ) -> Result<Pipeline> {
        match op {
            LogicalOp::EmptyTupleSource => Ok(Pipeline {
                input: PipeInput::Source(Arc::new(EmptyTupleSourceFactory)),
                steps: Vec::new(),
                schema: Vec::new(),
                parallelism: Parallelism::One,
            }),
            LogicalOp::NestedTupleSource => Err(EngineError::Compile(
                "nested-tuple-source outside a nested plan".into(),
            )),

            LogicalOp::DataScan {
                source,
                project,
                filter,
                var,
                input,
            } => {
                if !matches!(input.as_ref(), LogicalOp::EmptyTupleSource) {
                    return Err(EngineError::Compile(
                        "data-scan over a non-trivial input is unsupported".into(),
                    ));
                }
                let dir = resolve_collection(&self.opts.data_root, &source.path);
                let mut p = Pipeline {
                    input: PipeInput::Source(Arc::new(ProjectedScanFactory::new(
                        &dir,
                        project.clone(),
                        filter
                            .as_ref()
                            .map(|f| RtExpr::compile(f, &[*var], None))
                            .transpose()?,
                        &self.opts.cluster,
                        &self.opts.scan,
                        self.opts.pool.clone(),
                    )?)),
                    steps: Vec::new(),
                    schema: vec![*var],
                    parallelism: Parallelism::Full,
                };
                Self::prune(&mut p, live);
                Ok(p)
            }

            LogicalOp::Assign { var, expr, input } => {
                // Naive source patterns.
                if matches!(input.as_ref(), LogicalOp::EmptyTupleSource) {
                    if let LogicalExpr::Call(f @ (Function::Collection | Function::JsonDoc), args) =
                        expr
                    {
                        if let Some(path) = args.first().and_then(const_string) {
                            let path = resolve_collection(&self.opts.data_root, path);
                            let doc = matches!(f, Function::JsonDoc);
                            return Ok(Pipeline {
                                input: PipeInput::Source(Arc::new(
                                    WholeCollectionScanFactory::new(&path, doc)?,
                                )),
                                steps: Vec::new(),
                                schema: vec![*var],
                                parallelism: Parallelism::One,
                            });
                        }
                    }
                }
                let mut live_in: HashSet<VarId> =
                    live.iter().copied().filter(|v| v != var).collect();
                live_in.extend(expr_vars(expr));
                let mut p = self.compile_op(input, &live_in, job)?;
                p.steps
                    .push(StepSpec::Assign(RtExpr::compile(expr, &p.schema, None)?));
                p.schema.push(*var);
                Self::prune(&mut p, live);
                Ok(p)
            }

            LogicalOp::Select { cond, input } => {
                let mut live_in = live.clone();
                live_in.extend(expr_vars(cond));
                let mut p = self.compile_op(input, &live_in, job)?;
                p.steps
                    .push(StepSpec::Select(RtExpr::compile(cond, &p.schema, None)?));
                Self::prune(&mut p, live);
                Ok(p)
            }

            LogicalOp::Unnest { var, expr, input } => {
                let (kind, inner) = match expr {
                    LogicalExpr::Call(Function::Iterate, args) if args.len() == 1 => {
                        (UnnestKind::Iterate, &args[0])
                    }
                    LogicalExpr::Call(Function::KeysOrMembers, args) if args.len() == 1 => {
                        (UnnestKind::KeysOrMembers, &args[0])
                    }
                    other => (UnnestKind::Iterate, other),
                };
                let mut live_in: HashSet<VarId> =
                    live.iter().copied().filter(|v| v != var).collect();
                live_in.extend(expr_vars(inner));
                let mut p = self.compile_op(input, &live_in, job)?;
                p.steps.push(StepSpec::Unnest {
                    kind,
                    arg: RtExpr::compile(inner, &p.schema, None)?,
                });
                p.schema.push(*var);
                Self::prune(&mut p, live);
                Ok(p)
            }

            LogicalOp::Subplan { nested, input } => {
                let (c, func, arg, j, s) = decompose_subplan(nested)?;
                let mut live_in: HashSet<VarId> =
                    live.iter().copied().filter(|v| *v != c).collect();
                live_in.insert(s);
                live_in.extend(expr_vars(arg).into_iter().filter(|v| *v != j));
                let mut p = self.compile_op(input, &live_in, job)?;
                let seq = Self::field_of(&p.schema, s).map(RtExpr::field)?;
                let carg = RtExpr::compile(arg, &p.schema, Some(j))?;
                p.steps.push(StepSpec::SubplanAgg {
                    func,
                    seq,
                    arg: carg,
                });
                p.schema.push(c);
                Self::prune(&mut p, live);
                Ok(p)
            }

            LogicalOp::Aggregate {
                var,
                func,
                arg,
                input,
            } => {
                let mut live_in: HashSet<VarId> = expr_vars(arg).into_iter().collect();
                live_in.extend(live.iter().copied().filter(|v| v != var));
                let mut p = self.compile_op(input, &live_in, job)?;
                let carg = RtExpr::compile(arg, &p.schema, None)?;
                let split = if self.opts.two_step_aggregation && p.parallelism == Parallelism::Full
                {
                    func.two_step()
                } else {
                    None
                };
                match split {
                    Some((local, global)) => {
                        p.steps.push(StepSpec::Aggregate {
                            func: local,
                            arg: carg,
                        });
                        let sid = seal(rebind(p, vec![*var]), job);
                        Ok(Pipeline {
                            input: PipeInput::Stage {
                                from: sid,
                                connector: Connector::MergeToOne,
                            },
                            steps: vec![StepSpec::Aggregate {
                                func: global,
                                arg: RtExpr::field(0),
                            }],
                            schema: vec![*var],
                            parallelism: Parallelism::One,
                        })
                    }
                    None => {
                        let sid = seal(p, job);
                        Ok(Pipeline {
                            input: PipeInput::Stage {
                                from: sid,
                                connector: Connector::MergeToOne,
                            },
                            steps: vec![StepSpec::Aggregate {
                                func: *func,
                                arg: carg,
                            }],
                            schema: vec![*var],
                            parallelism: Parallelism::One,
                        })
                    }
                }
            }

            LogicalOp::GroupBy {
                keys,
                nested,
                input,
            } => self.compile_group_by(keys, nested, input, live, job),

            LogicalOp::OrderBy { keys, input } => {
                let mut live_in = live.clone();
                for (e, _) in keys {
                    live_in.extend(expr_vars(e));
                }
                let p = self.compile_op(input, &live_in, job)?;
                let schema = p.schema.clone();
                let mut ckeys = Vec::with_capacity(keys.len());
                for (e, asc) in keys {
                    ckeys.push((RtExpr::compile(e, &schema, None)?, *asc));
                }
                // A total order needs one sorter: merge everything to a
                // single partition, sort there. (A parallel sort-merge
                // would sort per partition and merge; the workloads here
                // order small result sets, so the simple plan wins.)
                let sid = seal(p, job);
                Ok(Pipeline {
                    input: PipeInput::Stage {
                        from: sid,
                        connector: Connector::MergeToOne,
                    },
                    steps: vec![StepSpec::Sort { keys: ckeys }],
                    schema,
                    parallelism: Parallelism::One,
                })
            }

            LogicalOp::Join { cond, left, right } => {
                self.compile_join(cond, left, right, live, job)
            }

            LogicalOp::Distribute { exprs, input } => {
                let mut live_in: HashSet<VarId> = live.clone();
                for e in exprs {
                    live_in.extend(expr_vars(e));
                }
                let mut p = self.compile_op(input, &live_in, job)?;
                // Materialize non-variable result expressions.
                let mut out_fields = Vec::with_capacity(exprs.len());
                for e in exprs {
                    match e {
                        LogicalExpr::Var(v) => out_fields.push(Self::field_of(&p.schema, *v)?),
                        other => {
                            let compiled = RtExpr::compile(other, &p.schema, None)?;
                            p.steps.push(StepSpec::Assign(compiled));
                            let v = self.gen.fresh();
                            p.schema.push(v);
                            out_fields.push(p.schema.len() - 1);
                        }
                    }
                }
                p.steps.push(StepSpec::Project(out_fields.clone()));
                p.schema = out_fields.iter().map(|&i| p.schema[i]).collect();
                Ok(p)
            }
        }
    }

    fn compile_group_by(
        &mut self,
        keys: &[(VarId, LogicalExpr)],
        nested: &LogicalOp,
        input: &LogicalOp,
        live: &HashSet<VarId>,
        job: &mut JobSpec,
    ) -> Result<Pipeline> {
        let (agg_var, func, arg) = decompose_group_agg(nested)?;
        let mut live_in: HashSet<VarId> = expr_vars(arg).into_iter().collect();
        for (_, ke) in keys {
            live_in.extend(expr_vars(ke));
        }
        let mut p = self.compile_op(input, &live_in, job)?;

        // Materialize key fields. Keys always pass through an ASSIGN with
        // canonicalization (RtExpr::canon): group membership downstream is
        // decided by *byte* equality of the serialized key, so JSONiq-equal
        // values (1 vs 1.0, singleton sequences) must serialize identically.
        let mut key_fields = Vec::with_capacity(keys.len());
        let mut out_schema = Vec::with_capacity(keys.len() + 1);
        for (gv, ke) in keys {
            let compiled = RtExpr::compile(ke, &p.schema, None)?;
            p.steps.push(StepSpec::Assign(compiled.canon()));
            let tmp = self.gen.fresh();
            p.schema.push(tmp);
            key_fields.push(p.schema.len() - 1);
            out_schema.push(*gv);
        }
        out_schema.push(agg_var);

        let carg = RtExpr::compile(arg, &p.schema, None)?;
        let nkeys = key_fields.len();

        if func == AggFunc::Sequence {
            let LogicalExpr::Var(v) = arg else {
                return Err(EngineError::Compile(
                    "sequence aggregation argument must be a variable".into(),
                ));
            };
            let seq_field = Self::field_of(&p.schema, *v)?;
            let sid = seal(p, job);
            let mut out = Pipeline {
                input: PipeInput::Stage {
                    from: sid,
                    connector: Connector::Hash {
                        key_fields: key_fields.clone(),
                    },
                },
                steps: vec![StepSpec::MatGroupBy {
                    key_fields,
                    seq_field,
                }],
                schema: out_schema,
                parallelism: Parallelism::Full,
            };
            Self::prune(&mut out, live);
            return Ok(out);
        }

        // A side partial needs no merge step: each partition's groups go
        // straight to the join above, which pairs every partial of one
        // side with every partial of the other, and the combine over
        // the pairs distributes over partial sums (`aggs`).
        if func == AggFunc::SidePartial {
            p.steps.push(StepSpec::HashGroupBy {
                key_fields,
                func,
                arg: carg,
            });
            let mut out = rebind(p, out_schema);
            Self::prune(&mut out, live);
            return Ok(out);
        }
        let split = if self.opts.two_step_aggregation {
            func.two_step()
        } else {
            None
        };
        let mut out = match split {
            Some((local, global)) => {
                // Local pre-aggregation fused into the producing stage.
                p.steps.push(StepSpec::HashGroupBy {
                    key_fields: key_fields.clone(),
                    func: local,
                    arg: carg,
                });
                let local_schema: Vec<VarId> = out_schema.clone();
                let sid = seal(rebind(p, local_schema), job);
                Pipeline {
                    input: PipeInput::Stage {
                        from: sid,
                        connector: Connector::Hash {
                            key_fields: (0..nkeys).collect(),
                        },
                    },
                    steps: vec![StepSpec::HashGroupBy {
                        key_fields: (0..nkeys).collect(),
                        func: global,
                        arg: RtExpr::field(nkeys),
                    }],
                    schema: out_schema,
                    parallelism: Parallelism::Full,
                }
            }
            None => {
                let sid = seal(p, job);
                Pipeline {
                    input: PipeInput::Stage {
                        from: sid,
                        connector: Connector::Hash {
                            key_fields: key_fields.clone(),
                        },
                    },
                    steps: vec![StepSpec::HashGroupBy {
                        key_fields,
                        func,
                        arg: carg,
                    }],
                    schema: out_schema,
                    parallelism: Parallelism::Full,
                }
            }
        };
        Self::prune(&mut out, live);
        Ok(out)
    }

    fn compile_join(
        &mut self,
        cond: &LogicalExpr,
        left: &LogicalOp,
        right: &LogicalOp,
        live: &HashSet<VarId>,
        job: &mut JobSpec,
    ) -> Result<Pipeline> {
        let lvars = produced_vars(left);
        let rvars = produced_vars(right);

        // Split the condition into equi-join keys and residual conjuncts.
        let mut lkeys: Vec<LogicalExpr> = Vec::new();
        let mut rkeys: Vec<LogicalExpr> = Vec::new();
        let mut residual: Vec<LogicalExpr> = Vec::new();
        for c in cond.conjuncts() {
            if matches!(c, LogicalExpr::Const(Item::Boolean(true))) {
                continue;
            }
            if let LogicalExpr::Call(Function::Eq, args) = c {
                if let [a, b] = args.as_slice() {
                    let side = |e: &LogicalExpr| {
                        let vs = expr_vars(e);
                        let in_l = vs.iter().all(|v| lvars.contains(v));
                        let in_r = vs.iter().all(|v| rvars.contains(v));
                        (in_l, in_r)
                    };
                    match (side(a), side(b)) {
                        ((true, false), (false, true)) => {
                            lkeys.push(a.clone());
                            rkeys.push(b.clone());
                            continue;
                        }
                        ((false, true), (true, false)) => {
                            lkeys.push(b.clone());
                            rkeys.push(a.clone());
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            residual.push(c.clone());
        }
        if lkeys.is_empty() {
            return Err(EngineError::Compile(
                "join requires at least one cross-side equality".into(),
            ));
        }

        // Across the join, each side carries only the variables live above
        // and whatever the residual condition reads, plus its key fields.
        let mut keep_l: HashSet<VarId> =
            live.iter().copied().filter(|v| lvars.contains(v)).collect();
        let mut keep_r: HashSet<VarId> =
            live.iter().copied().filter(|v| rvars.contains(v)).collect();
        for e in &residual {
            for v in expr_vars(e) {
                if lvars.contains(&v) {
                    keep_l.insert(v);
                } else {
                    keep_r.insert(v);
                }
            }
        }
        // The key expressions read more, but only until the keys exist.
        let mut live_l = keep_l.clone();
        let mut live_r = keep_r.clone();
        for e in &lkeys {
            live_l.extend(expr_vars(e));
        }
        for e in &rkeys {
            live_r.extend(expr_vars(e));
        }

        let mut lp = self.compile_op(left, &live_l, job)?;
        let mut rp = self.compile_op(right, &live_r, job)?;

        let lkf = self.materialize_keys(&lkeys, &mut lp, keep_l, &group_keys(left))?;
        let rkf = self.materialize_keys(&rkeys, &mut rp, keep_r, &group_keys(right))?;

        // Output schema: probe (right) fields then build (left) fields —
        // HashJoinOp's output order.
        let mut out_schema = rp.schema.clone();
        out_schema.extend(lp.schema.iter().copied());
        let residual_rt = if residual.is_empty() {
            None
        } else {
            Some(RtExpr::compile(
                &LogicalExpr::conjoin(residual),
                &out_schema,
                None,
            )?)
        };

        let lsid = seal(lp, job);
        let rsid = seal(rp, job);
        let jid = job.add(Stage {
            kind: StageKind::Join {
                build: StageInput {
                    from: lsid,
                    connector: Connector::Hash {
                        key_fields: lkf.clone(),
                    },
                },
                probe: StageInput {
                    from: rsid,
                    connector: Connector::Hash {
                        key_fields: rkf.clone(),
                    },
                },
                factory: Arc::new(JoinChainFactory {
                    build_keys: lkf,
                    probe_keys: rkf,
                    residual: residual_rt,
                }),
            },
            parallelism: Parallelism::Full,
        });
        let mut out = Pipeline {
            input: PipeInput::Stage {
                from: jid,
                connector: Connector::OneToOne,
            },
            steps: Vec::new(),
            schema: out_schema,
            parallelism: Parallelism::Full,
        };
        Self::prune(&mut out, live);
        Ok(out)
    }

    /// Append a canonicalizing ASSIGN per key expression and drop the
    /// tuples no key can match ([`JoinableKeys`]), then prune the
    /// pipeline to `keep` plus the keys; returns the key field indices.
    /// A key that is a variable in `canonical` (a GROUP-BY key, as eager
    /// aggregation's side GROUP-BYs bind them) already holds its
    /// canonical bytes and is read as it is: on service_small's data the
    /// second ASSIGN per key made eager Q2 about 10% slower (2.57 → 2.85
    /// ms p50, 10 alternating rounds of 401 runs, 9 of 10 won, on a
    /// shared 2-vCPU x86_64 host).
    fn materialize_keys(
        &mut self,
        keys: &[LogicalExpr],
        p: &mut Pipeline,
        mut keep: HashSet<VarId>,
        canonical: &HashSet<VarId>,
    ) -> Result<Vec<usize>> {
        let mut key_vars = Vec::with_capacity(keys.len());
        for k in keys {
            if let LogicalExpr::Var(v) = k {
                if canonical.contains(v) {
                    key_vars.push(*v);
                    continue;
                }
            }
            let compiled = RtExpr::compile(k, &p.schema, None)?;
            p.steps.push(StepSpec::Assign(compiled.canon()));
            let tmp = self.gen.fresh();
            p.schema.push(tmp);
            key_vars.push(tmp);
        }
        let fields = key_vars
            .iter()
            .map(|v| Self::field_of(&p.schema, *v))
            .collect::<Result<_>>()?;
        p.steps.push(StepSpec::JoinableKeys(fields));
        keep.extend(key_vars.iter().copied());
        Self::prune(p, &keep);
        key_vars
            .into_iter()
            .map(|v| Self::field_of(&p.schema, v))
            .collect()
    }
}

/// Replace a pipeline's schema (used when a fused aggregate collapses the
/// tuple down to a single field).
fn rebind(p: Pipeline, schema: Vec<VarId>) -> Pipeline {
    Pipeline { schema, ..p }
}

/// The variables GROUP-BYs in a subtree bind to their keys: each holds
/// its key canonicalized (see [`Compiler::compile_group_by`]).
fn group_keys(op: &LogicalOp) -> HashSet<VarId> {
    let mut out = HashSet::new();
    op.visit(&mut |o| {
        if let LogicalOp::GroupBy { keys, .. } = o {
            out.extend(keys.iter().map(|(v, _)| *v));
        }
    });
    out
}

/// All variables produced anywhere in a subtree.
fn produced_vars(op: &LogicalOp) -> HashSet<VarId> {
    let mut out = HashSet::new();
    op.visit(&mut |o| out.extend(o.produced_vars()));
    out
}

/// Decompose `SUBPLAN { AGGREGATE f(arg) over UNNEST $j := iterate($s)
/// over NTS }`.
fn decompose_subplan(nested: &LogicalOp) -> Result<(VarId, AggFunc, &LogicalExpr, VarId, VarId)> {
    let LogicalOp::Aggregate {
        var,
        func,
        arg,
        input,
    } = nested
    else {
        return Err(EngineError::Compile(
            "subplan must contain an aggregate".into(),
        ));
    };
    let LogicalOp::Unnest {
        var: j,
        expr,
        input: u_in,
    } = input.as_ref()
    else {
        return Err(EngineError::Compile(
            "subplan aggregate must read an unnest".into(),
        ));
    };
    if !matches!(u_in.as_ref(), LogicalOp::NestedTupleSource) {
        return Err(EngineError::Compile(
            "subplan unnest must read nested-tuple-source".into(),
        ));
    }
    let LogicalExpr::Call(Function::Iterate, it_args) = expr else {
        return Err(EngineError::Compile("subplan unnest must iterate".into()));
    };
    let [LogicalExpr::Var(s)] = it_args.as_slice() else {
        return Err(EngineError::Compile(
            "subplan unnest must iterate a variable".into(),
        ));
    };
    Ok((*var, *func, arg, *j, *s))
}

/// Decompose a GROUP-BY nested plan: `AGGREGATE f(arg) over NTS`.
fn decompose_group_agg(nested: &LogicalOp) -> Result<(VarId, AggFunc, &LogicalExpr)> {
    let LogicalOp::Aggregate {
        var,
        func,
        arg,
        input,
    } = nested
    else {
        return Err(EngineError::Compile(
            "group-by nested plan must be an aggregate".into(),
        ));
    };
    if !matches!(input.as_ref(), LogicalOp::NestedTupleSource) {
        return Err(EngineError::Compile(
            "group-by nested aggregate must read nested-tuple-source".into(),
        ));
    }
    Ok((*var, *func, arg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::rules::{RuleConfig, RuleSet};

    /// A data root holding the (empty) collections the test queries read:
    /// compilation lists them.
    fn data_root() -> PathBuf {
        let root = std::env::temp_dir().join("vxq-compile-tests");
        for coll in ["sensors", "s"] {
            std::fs::create_dir_all(root.join(coll)).unwrap();
        }
        root
    }

    fn compile(query: &str, rules: RuleConfig) -> JobSpec {
        let mut plan = jsoniq::compile(query).expect("compiles");
        RuleSet::for_config(rules).optimize(&mut plan);
        compile_plan(
            &plan,
            &CompileOptions {
                data_root: data_root(),
                two_step_aggregation: rules.two_step_aggregation,
                ..CompileOptions::default()
            },
        )
        .expect("physical compilation")
    }

    fn stage_kinds(job: &JobSpec) -> Vec<&'static str> {
        job.stages
            .iter()
            .map(|s| match s.kind {
                StageKind::Source { .. } => "source",
                StageKind::Pipe { .. } => "pipe",
                StageKind::Join { .. } => "join",
            })
            .collect()
    }

    #[test]
    fn optimized_q0_is_a_single_source_stage() {
        let job = compile(crate::queries::Q0, RuleConfig::all());
        assert_eq!(stage_kinds(&job), vec!["source"]);
        assert_eq!(job.stages[0].parallelism, Parallelism::Full);
    }

    #[test]
    fn optimized_q1_has_local_groupby_then_exchange() {
        let job = compile(crate::queries::Q1, RuleConfig::all());
        // Source (scan + select + key assign + local group-by), then the
        // global group-by stage behind a hash exchange.
        assert_eq!(stage_kinds(&job), vec!["source", "pipe"]);
        let StageKind::Pipe { input, .. } = &job.stages[1].kind else {
            unreachable!()
        };
        assert!(matches!(input.connector, Connector::Hash { .. }));
        assert_eq!(job.stages[1].parallelism, Parallelism::Full);
    }

    #[test]
    fn q1_without_two_step_exchanges_raw_tuples() {
        let cfg = RuleConfig {
            two_step_aggregation: false,
            ..RuleConfig::all()
        };
        let job = compile(crate::queries::Q1, cfg);
        assert_eq!(stage_kinds(&job), vec!["source", "pipe"]);
    }

    #[test]
    fn naive_q1_uses_single_partition_whole_collection_scan() {
        let job = compile(crate::queries::Q1, RuleConfig::none());
        // First stage: the naive collection scan, parallelism One.
        assert!(matches!(job.stages[0].kind, StageKind::Source { .. }));
        assert_eq!(job.stages[0].parallelism, Parallelism::One);
    }

    #[test]
    fn optimized_q2_builds_join_with_hash_inputs() {
        let job = compile(crate::queries::Q2, RuleConfig::all());
        let kinds = stage_kinds(&job);
        assert!(kinds.contains(&"join"), "{kinds:?}");
        // Both join inputs arrive via hash exchanges on the key fields.
        let join = job
            .stages
            .iter()
            .find_map(|s| match &s.kind {
                StageKind::Join { build, probe, .. } => Some((build, probe)),
                _ => None,
            })
            .expect("join stage");
        assert!(
            matches!(join.0.connector, Connector::Hash { ref key_fields } if key_fields.len() == 2)
        );
        assert!(
            matches!(join.1.connector, Connector::Hash { ref key_fields } if key_fields.len() == 2)
        );
    }

    #[test]
    fn q2_ends_with_single_partition_aggregate() {
        let job = compile(crate::queries::Q2, RuleConfig::all());
        let terminal = job.terminal().expect("terminal");
        assert_eq!(job.stages[terminal].parallelism, Parallelism::One);
    }

    #[test]
    fn join_without_equality_is_rejected() {
        let q = r#"
            avg(
              for $a in collection("/s")("root")()
              for $b in collection("/s")("root")()
              where $a("x") lt $b("x")
              return 1
            )
        "#;
        let mut plan = jsoniq::compile(q).expect("compiles");
        RuleSet::for_config(RuleConfig::all()).optimize(&mut plan);
        let r = compile_plan(
            &plan,
            &CompileOptions {
                data_root: data_root(),
                two_step_aggregation: true,
                ..CompileOptions::default()
            },
        );
        match r {
            Err(err) => assert!(err.to_string().contains("equality"), "{err}"),
            Ok(_) => panic!("non-equi join must be rejected"),
        }
    }

    #[test]
    fn column_pruning_inserts_projects_for_naive_plans() {
        // The naive plan carries the whole-collection sequence variable;
        // pruning must drop it after the iterate.
        let mut plan = jsoniq::compile(crate::queries::Q0).expect("compiles");
        RuleSet::for_config(RuleConfig::none()).optimize(&mut plan);
        let job = compile_plan(
            &plan,
            &CompileOptions {
                data_root: data_root(),
                two_step_aggregation: false,
                ..CompileOptions::default()
            },
        )
        .expect("compiles physically");
        // Can't inspect steps directly (private), but compilation must
        // succeed and produce at least one stage; the e2e memory test
        // (xtests) verifies pruning behaviourally.
        assert!(!job.stages.is_empty());
    }
}
