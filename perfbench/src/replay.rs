//! The traced in-process replay: each request runs through the session
//! (`query.*`, `core.render`), and then again through the lower layers'
//! public calls (`table.*`, `core.build`, `suggest.*`) against a twin
//! cache that sees the same sequence of calls, so a mirrored build meets
//! the same hits and misses as the session's own.

use crate::report::Class;
use crate::span::{process_cpu, Recorder};
use dbex_core::{build_cad_view_cached, CadRequest, Preference, StatsCache};
use dbex_query::ast::SortOrder;
use dbex_query::{CadViewStmt, QueryOutput, Session, SharedCatalog, Statement, SuggestKind};
use dbex_serve::{query_error_code, WireResponse};
use dbex_suggest::{CompletionMode, SuggestConfig};
use dbex_table::{Predicate, Table, View};
use std::sync::Arc;

/// The wire `kind` of an output, as the server tags it.
pub fn output_kind(output: &QueryOutput) -> &'static str {
    match output {
        QueryOutput::Rows { .. } => "rows",
        QueryOutput::Cad { .. } => "cad",
        QueryOutput::Highlights(_) => "highlights",
        QueryOutput::Reordered(_) => "reordered",
        QueryOutput::Text(_) => "text",
        QueryOutput::Suggestions { .. } => "suggestions",
    }
}

/// The builder request a session makes for `c` (see the session's
/// `cad_request`), with the session's thread setting.
pub fn cad_request(c: &CadViewStmt, threads: Option<usize>) -> CadRequest {
    let mut request = CadRequest::new(&c.pivot).with_compare(c.compare_attrs.clone());
    if let Some(threads) = threads {
        request.config.threads = threads;
    }
    if let Some(m) = c.limit_columns {
        request = request.with_max_compare_attrs(m);
    }
    if let Some(k) = c.iunits {
        request = request.with_iunits(k);
    }
    if let Some((attr, order)) = c.order_by.first() {
        request = request.with_preference(match order {
            SortOrder::Asc => Preference::AttributeAsc(attr.clone()),
            SortOrder::Desc => Preference::AttributeDesc(attr.clone()),
        });
    }
    request
}

/// The mirrored build of a cad request, handed to a workload that goes
/// further down than `core.build` (the staged kernel calls).
pub struct MirroredBuild<'t> {
    pub view: View<'t>,
    pub request: CadRequest,
    pub cad: dbex_core::CadView,
    pub build_span: usize,
}

pub struct Replay {
    pub catalog: Arc<SharedCatalog>,
    pub twin: StatsCache,
    /// The sessions' thread setting (`None` = the sequential default).
    pub threads: Option<usize>,
    pub rec: Recorder,
    /// Class of each recorded request, indexed by request id.
    pub classes: Vec<Class>,
    pub build_cpu_ms: Vec<f64>,
    pub mismatches: Vec<String>,
    /// Per lane: the source table, predicate and pivot column of the last
    /// view built, which `SUGGEST NEXT FOR v` re-derives.
    contexts: Vec<Option<(Arc<Table>, Predicate, usize)>>,
}

impl Replay {
    pub fn new(
        catalog: Arc<SharedCatalog>,
        twin_capacity: usize,
        threads: Option<usize>,
        lanes: usize,
    ) -> Replay {
        Replay {
            catalog,
            twin: StatsCache::with_capacity(twin_capacity),
            threads,
            rec: Recorder::new(),
            classes: Vec::new(),
            build_cpu_ms: Vec::new(),
            mismatches: Vec::new(),
            contexts: vec![None; lanes],
        }
    }

    pub fn class_of(&self, request: u64) -> Class {
        self.classes[request as usize]
    }

    /// Runs one request on `lane`'s session, including its wire line, and
    /// then its mirror. With `record` off (warm-up) the calls are made but
    /// their spans dropped. `deeper` receives each mirrored build, within
    /// the mirror span.
    pub fn run(
        &mut self,
        lane: usize,
        session: &mut Session,
        class: Class,
        request: &str,
        record: bool,
        deeper: &mut dyn FnMut(&mut Recorder, u64, &MirroredBuild<'_>),
    ) {
        let mark = (self.rec.spans.len(), self.build_cpu_ms.len());
        let id = self.classes.len() as u64;
        self.classes.push(class);
        let root = self.rec.open("request", None, id);
        let (parsed, _) = self
            .rec
            .time("query.parse", Some(root), id, || dbex_query::parse(request));
        let exec_name = match class {
            Class::Cad => "query.execute.cad",
            Class::Suggest => "query.execute.suggest",
            Class::Interact => "query.execute.interact",
        };
        let stmt = parsed.as_ref().ok().cloned();
        let (ok, line, rendered) = match parsed {
            Ok(stmt) => {
                let (result, _) = self.rec.time(exec_name, Some(root), id, || {
                    session.execute_statement(stmt)
                });
                match result {
                    Ok(output) => {
                        let (text, _) = self
                            .rec
                            .time("core.render", Some(root), id, || output.render());
                        let line = WireResponse::ok(output_kind(&output), &text).to_line();
                        let rendered = match output {
                            QueryOutput::Cad { rendered, .. } => Some(rendered),
                            _ => None,
                        };
                        (true, line, rendered)
                    }
                    Err(e) => (
                        false,
                        WireResponse::err(query_error_code(&e), &e.to_string()).to_line(),
                        None,
                    ),
                }
            }
            Err(e) => {
                let e = dbex_query::QueryError::from(e);
                (
                    false,
                    WireResponse::err(query_error_code(&e), &e.to_string()).to_line(),
                    None,
                )
            }
        };
        std::hint::black_box(line);
        self.rec.close(root);
        if let (Some(stmt), true) = (stmt, ok) {
            self.mirror(lane, id, &stmt, rendered.as_deref(), deeper);
        }
        if !record {
            self.rec.spans.truncate(mark.0);
            self.build_cpu_ms.truncate(mark.1);
            self.classes.pop();
        }
    }

    fn mirror(
        &mut self,
        lane: usize,
        id: u64,
        stmt: &Statement,
        rendered: Option<&str>,
        deeper: &mut dyn FnMut(&mut Recorder, u64, &MirroredBuild<'_>),
    ) {
        let root = self.rec.open("mirror", None, id);
        self.mirror_calls(lane, id, stmt, rendered, deeper, Some(root));
        self.rec.close(root);
    }

    fn mirror_calls(
        &mut self,
        lane: usize,
        id: u64,
        stmt: &Statement,
        rendered: Option<&str>,
        deeper: &mut dyn FnMut(&mut Recorder, u64, &MirroredBuild<'_>),
        root: Option<usize>,
    ) {
        match stmt {
            Statement::Select(s) => {
                if let Some(table) = self.catalog.get(&s.table) {
                    self.filter(&table, &s.predicate, root, id);
                }
            }
            Statement::CreateCadView(c) => {
                let Some(table) = self.catalog.get(&c.table) else {
                    return;
                };
                let Some(view) = self.filter(&table, &c.predicate, root, id) else {
                    return;
                };
                let request = cad_request(c, self.threads);
                let cpu = process_cpu();
                let (built, build_span) = self.rec.time("core.build", root, id, || {
                    build_cad_view_cached(&view, &request, Some(&self.twin))
                });
                self.build_cpu_ms
                    .push((process_cpu() - cpu).as_secs_f64() * 1e3);
                match built {
                    Ok(cad) => {
                        if rendered != Some(cad.render().as_str()) {
                            self.mismatches.push(format!(
                                "mirrored build of request {id} ({}) renders differently from the session's",
                                c.name
                            ));
                        }
                        let pivot = cad.pivot_attr;
                        deeper(
                            &mut self.rec,
                            id,
                            &MirroredBuild {
                                view,
                                request,
                                cad,
                                build_span,
                            },
                        );
                        self.contexts[lane] =
                            Some((Arc::clone(&table), c.predicate.clone(), pivot));
                    }
                    Err(e) => self
                        .mismatches
                        .push(format!("mirrored build of request {id} failed: {e}")),
                }
            }
            Statement::Suggest(s) => {
                let cfg = SuggestConfig {
                    threads: self.threads.unwrap_or(1),
                    ..SuggestConfig::default()
                };
                match &s.kind {
                    SuggestKind::Next { .. } => {
                        let Some((table, predicate, pivot)) = self.contexts[lane].clone() else {
                            return;
                        };
                        let Some(view) = self.filter(&table, &predicate, root, id) else {
                            return;
                        };
                        let twin = &self.twin;
                        let (next, _) = self.rec.time("suggest.next", root, id, || {
                            dbex_suggest::suggest_next(&view, pivot, &cfg, Some(twin))
                        });
                        if let Err(e) = next {
                            self.mismatches.push(format!(
                                "mirrored suggest_next of request {id} failed: {e:?}"
                            ));
                        }
                    }
                    SuggestKind::Complete { prefix } => {
                        let span = self.rec.open("suggest.complete", root, id);
                        let analysis = dbex_suggest::analyze_prefix(prefix);
                        let table = analysis.table.as_deref().and_then(|t| self.catalog.get(t));
                        if let Some(table) = table {
                            let context = analysis
                                .context
                                .as_deref()
                                .and_then(|ctx| dbex_query::parse_predicate(ctx).ok());
                            let view = match &context {
                                Some(pred) => self.filter(&table, pred, Some(span), id),
                                None => Some(table.full_view()),
                            };
                            if let Some(view) = view {
                                let twin = Some(&self.twin);
                                match &analysis.mode {
                                    CompletionMode::Attribute { partial } => {
                                        dbex_suggest::complete_attribute(
                                            &view, partial, &cfg, twin,
                                        );
                                    }
                                    CompletionMode::Value { attr, partial } => {
                                        let _ = dbex_suggest::complete_value(
                                            &view, attr, partial, &cfg, twin,
                                        );
                                    }
                                }
                            }
                        }
                        self.rec.close(span);
                    }
                }
            }
            _ => {}
        }
    }

    /// `table.filter` then `table.fingerprint` of the filtered view.
    fn filter<'t>(
        &mut self,
        table: &'t Table,
        predicate: &Predicate,
        parent: Option<usize>,
        id: u64,
    ) -> Option<View<'t>> {
        let (view, _) = self
            .rec
            .time("table.filter", parent, id, || table.filter(predicate));
        let view = view.ok()?;
        self.rec.time("table.fingerprint", parent, id, || {
            std::hint::black_box(view.fingerprint())
        });
        Some(view)
    }

    /// Median duration (ms) of `name` spans over requests of `class`.
    pub fn median_ms(&self, name: &str, class: Option<Class>) -> f64 {
        let samples = self
            .rec
            .durations_ms(name, |r| class.is_none_or(|c| self.class_of(r) == c));
        crate::report::median_or_zero(&samples)
    }

    /// Median self time (ms) of `name` spans.
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let self_ns = self.rec.self_ns();
        let samples: Vec<f64> = self
            .rec
            .spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect();
        crate::report::median_or_zero(&samples)
    }

    /// Sets the per-layer metrics every workload's replay yields.
    pub fn set_layer_metrics(&self, report: &mut crate::report::Report) {
        report.set(
            "query.parse_us",
            self.median_ms("query.parse", None) * 1e3,
            "us",
        );
        for class in Class::ALL {
            let span = format!("query.execute.{}", class.name());
            report.set(
                &format!("query.execute_ms.{}", class.name()),
                self.median_ms(&span, None),
                "ms",
            );
        }
        report.set("core.build_ms", self.median_ms("core.build", None), "ms");
        report.set(
            "core.build_cpu_ms",
            crate::report::median_or_zero(&self.build_cpu_ms),
            "ms",
        );
        report.set(
            "core.render_ms",
            self.median_ms("core.render", Some(Class::Cad)),
            "ms",
        );
        report.set(
            "table.filter_ms",
            self.median_ms("table.filter", None),
            "ms",
        );
        report.set(
            "table.fingerprint_us",
            self.median_ms("table.fingerprint", None) * 1e3,
            "us",
        );
        report.set(
            "suggest.next_ms",
            self.median_ms("suggest.next", None),
            "ms",
        );
        report.set(
            "suggest.complete_ms",
            self.median_self_ms("suggest.complete"),
            "ms",
        );
    }

    /// Prints calls and self time per layer.
    pub fn print_layers(&self) {
        for (name, layer) in self.rec.layers() {
            println!(
                "layer {name}: calls={} self_ms={:.3} busy_ms={:.3}",
                layer.calls, layer.self_ms, layer.busy_ms
            );
        }
    }
}
