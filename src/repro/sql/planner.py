"""AST -> physical plan compilation.

Implements the planning rules the paper states:

* random tables expand to ``Scan -> Seed -> Instantiate`` pipelines, with
  occurrences of the same uncertain table sharing seeds (self-join
  consistency, Sec. 5);
* single-relation predicates push down below the joins; predicates on a
  random attribute become presence arrays inside the pipeline;
* equi-join predicates drive a greedy left-deep join tree; a join key that
  is a random attribute gets a ``Split`` inserted first (Sec. 8);
* in tail mode, any residual predicate that touches random attributes is
  pulled up into the GibbsLooper as the final predicate (Appendix A item 3),
  and the single aggregate becomes the looper's aggregate expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.gibbs_looper import GibbsLooper
from repro.core.params import choose_parameters
from repro.engine.errors import PlanError
from repro.engine.expressions import BinOp, Col, Expr, Lit, Not, and_all
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import (
    Join, PlanNode, Scan, Select, Split, random_table_pipeline)
from repro.engine.random_table import RandomTableSpec
from repro.engine.table import Catalog
from repro.sql.ast_nodes import AggCall, FromItem, SelectStmt

__all__ = ["CompiledSelect", "compile_select", "describe_compiled",
           "validate_tail_select", "monte_carlo_executor", "tail_looper"]


@dataclass
class CompiledSelect:
    """A planned SELECT, ready for an executor.

    ``pulled_up_predicate`` is only non-None in tail mode; in Monte Carlo
    mode every predicate is applied inside ``plan``.
    """

    plan: PlanNode
    aggregates: list[AggregateSpec]
    plain_outputs: list[tuple[str, Expr]]
    group_by: list[str]
    pulled_up_predicate: Expr | None
    has_random_input: bool


@dataclass
class _Source:
    item: FromItem
    plan: PlanNode
    columns: list[str]          # canonical (prefixed) names
    random_columns: set[str]    # canonical names of uncertain attributes
    predicates: list[Expr] = field(default_factory=list)


class _NameResolver:
    """Maps SQL column references to canonical prefixed names."""

    def __init__(self, sources: list[_Source]):
        self._full: dict[str, int] = {}
        self._suffix: dict[str, list[str]] = {}
        for index, source in enumerate(sources):
            for name in source.columns:
                if name in self._full:
                    raise PlanError(f"duplicate column {name!r}; add aliases")
                self._full[name] = index
                suffix = name.split(".", 1)[1]
                self._suffix.setdefault(suffix, []).append(name)

    def resolve(self, name: str) -> str:
        if name in self._full:
            return name
        candidates = self._suffix.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise PlanError(
                f"unknown column {name!r}; known: {sorted(self._full)}")
        raise PlanError(f"ambiguous column {name!r}: one of {candidates}")

    def source_of(self, canonical: str) -> int:
        return self._full[canonical]


def _rewrite(expr: Expr, resolver: _NameResolver) -> Expr:
    if isinstance(expr, Col):
        return Col(resolver.resolve(expr.name))
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _rewrite(expr.left, resolver),
                     _rewrite(expr.right, resolver))
    if isinstance(expr, Not):
        return Not(_rewrite(expr.operand, resolver))
    raise PlanError(f"cannot plan expression node {type(expr).__name__}")


def _conjuncts(expr: Expr | None) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _build_sources(from_items, catalog: Catalog) -> list[_Source]:
    sources = []
    for item in from_items:
        prefix = item.prefix
        if catalog.is_random(item.table):
            spec: RandomTableSpec = catalog.random_table(item.table)
            # Same uncertain table, any alias: occurrence "" means shared
            # seeds — both references see the same possible world.
            plan = random_table_pipeline(spec, prefix=prefix, occurrence="")
            columns = [prefix + name for name in spec.column_names]
            random_columns = {
                prefix + column.name for column in spec.random_columns}
        else:
            table = catalog.table(item.table)
            plan = Scan(item.table, prefix=prefix)
            columns = [prefix + name for name in table.column_names]
            random_columns = set()
        sources.append(_Source(item=item, plan=plan, columns=columns,
                               random_columns=random_columns))
    return sources


def _join_edge(conjunct: Expr, resolver: _NameResolver) -> tuple[str, str] | None:
    """Detect ``a.x = b.y`` between two different sources."""
    if not (isinstance(conjunct, BinOp) and conjunct.op == "="
            and isinstance(conjunct.left, Col) and isinstance(conjunct.right, Col)):
        return None
    left, right = conjunct.left.name, conjunct.right.name
    if resolver.source_of(left) == resolver.source_of(right):
        return None
    return left, right


def compile_select(statement: SelectStmt, catalog: Catalog,
                   tail_mode: bool) -> CompiledSelect:
    """Compile a SELECT into a physical plan plus executor inputs."""
    if not statement.from_items:
        raise PlanError("FROM clause is required")
    sources = _build_sources(statement.from_items, catalog)
    resolver = _NameResolver(sources)
    has_random_input = any(source.random_columns for source in sources)

    # Classify WHERE conjuncts.
    join_edges: list[tuple[str, str]] = []
    residual: list[Expr] = []
    for conjunct in _conjuncts(statement.where):
        conjunct = _rewrite(conjunct, resolver)
        edge = _join_edge(conjunct, resolver)
        if edge is not None:
            join_edges.append(edge)
            continue
        owners = {resolver.source_of(name) for name in conjunct.columns()}
        if len(owners) == 1:
            sources[owners.pop()].predicates.append(conjunct)
        elif not owners:
            residual.append(conjunct)  # constant predicate
        else:
            residual.append(conjunct)

    # Push single-source predicates down (random ones become presence
    # arrays inside the pipeline; in tail mode Select enforces the
    # single-seed rule itself).
    plans: list[PlanNode] = []
    for source in sources:
        plan = source.plan
        for predicate in source.predicates:
            plan = Select(plan, predicate)
        plans.append(plan)

    # Greedy left-deep join tree over the equi-join edges, inserting Split
    # for random join keys (Sec. 8).
    random_by_name = {
        name: index for index, source in enumerate(sources)
        for name in source.random_columns}
    split_done: set[str] = set()

    def ensure_deterministic_key(name: str) -> None:
        index = random_by_name.get(name)
        if index is None or name in split_done:
            return
        plans[index] = Split(plans[index], name)
        split_done.add(name)

    joined = {0}
    current = plans[0]
    remaining_edges = list(join_edges)
    while len(joined) < len(sources):
        progress = False
        for edge in list(remaining_edges):
            left, right = edge
            li, ri = resolver.source_of(left), resolver.source_of(right)
            if li in joined and ri in joined:
                # Both sides already joined: becomes a residual filter.
                remaining_edges.remove(edge)
                residual.append(BinOp("=", Col(left), Col(right)))
                progress = True
                continue
            if li in joined or ri in joined:
                if ri in joined:  # orient: left side already in the tree
                    left, right, li, ri = right, left, ri, li
                # Gather every edge between the joined set and source ri.
                left_keys, right_keys = [], []
                for other in list(remaining_edges):
                    ol, orr = other
                    oli, ori = resolver.source_of(ol), resolver.source_of(orr)
                    if ori in joined and oli == ri:
                        ol, orr, oli, ori = orr, ol, ori, oli
                    if oli in joined and ori == ri:
                        ensure_deterministic_key(ol)
                        ensure_deterministic_key(orr)
                        left_keys.append(ol)
                        right_keys.append(orr)
                        remaining_edges.remove(other)
                current = Join(current, plans[ri], left_keys, right_keys)
                joined.add(ri)
                progress = True
                break
        if not progress:
            missing = [sources[i].item.table for i in range(len(sources))
                       if i not in joined]
            raise PlanError(
                f"no join predicate connects {missing}; cross products are "
                "not supported")

    # Residual (post-join) predicates.
    pulled_up: list[Expr] = []
    for predicate in residual:
        touches_random = any(
            name in random_by_name and name not in split_done
            for name in predicate.columns())
        if tail_mode and touches_random:
            pulled_up.append(predicate)  # Appendix A: pull up into the looper
        else:
            current = Select(current, predicate)

    # Outputs.
    aggregates: list[AggregateSpec] = []
    plain_outputs: list[tuple[str, Expr]] = []
    for position, item in enumerate(statement.items):
        default_name = f"col{position}"
        if isinstance(item.expr, AggCall):
            expr = (None if item.expr.expr is None
                    else _rewrite(item.expr.expr, resolver))
            aggregates.append(AggregateSpec(
                item.alias or f"{item.expr.kind}{position}",
                item.expr.kind, expr))
        else:
            plain_outputs.append(
                (item.alias or _default_output_name(item.expr, default_name),
                 _rewrite(item.expr, resolver)))
    group_by = [resolver.resolve(name) for name in statement.group_by]
    if aggregates and plain_outputs:
        # Plain outputs alongside aggregates may only be GROUP BY keys.
        for _, expr in plain_outputs:
            if not (isinstance(expr, Col) and expr.name in group_by):
                raise PlanError(
                    "non-aggregate outputs next to aggregates must be "
                    "GROUP BY columns")
    return CompiledSelect(
        plan=current, aggregates=aggregates, plain_outputs=plain_outputs,
        group_by=group_by, pulled_up_predicate=and_all(pulled_up),
        has_random_input=has_random_input)


def _default_output_name(expr: Expr, fallback: str) -> str:
    if isinstance(expr, Col):
        return expr.name.split(".", 1)[-1]
    return fallback


def validate_tail_select(compiled: CompiledSelect, spec) -> AggregateSpec:
    """Tail-mode shape rules (Sec. 2 + the Appendix A planning contract).

    ``DOMAIN <agg> >= QUANTILE(q)`` demands exactly one aggregate, no
    grouping (the paper treats a g-group query as g separate queries) and
    a DOMAIN target naming that aggregate; returns it for the looper.
    """
    domain = spec.domain
    if domain.quantile is None:
        raise PlanError(
            "DOMAIN with an explicit threshold is not supported; use "
            "DOMAIN <agg> >= QUANTILE(q) (the paper's tail-sampling "
            "form)")
    if compiled.group_by:
        raise PlanError(
            "GROUP BY with DOMAIN is not supported in one statement; "
            "run one conditioned query per group (the paper treats a "
            "g-group query as g separate queries)")
    if len(compiled.aggregates) != 1:
        raise PlanError(
            "tail sampling requires exactly one aggregate in SELECT")
    aggregate = compiled.aggregates[0]
    if aggregate.name != domain.target:
        raise PlanError(
            f"DOMAIN target {domain.target!r} does not name the "
            f"aggregate {aggregate.name!r}")
    return aggregate


def monte_carlo_executor(compiled: CompiledSelect, catalog: Catalog, *,
                         base_seed: int = 0, options=None, det_cache=None,
                         backend=None) -> MonteCarloExecutor:
    """Bind a compiled SELECT to the naive-MCDB executor.

    The single place the execution policy — options, det-cache tier and
    the session's shard backend — is threaded from the SQL layer into a
    Monte Carlo run.
    """
    return MonteCarloExecutor(
        compiled.plan, compiled.aggregates, catalog,
        group_by=compiled.group_by, base_seed=base_seed, options=options,
        det_cache=det_cache, backend=backend)


def tail_looper(compiled: CompiledSelect, catalog: Catalog, spec, *,
                tail_budget: int, window: int, gibbs_steps: int = 1,
                base_seed: int = 0, options=None, det_cache=None,
                backend=None, context=None) -> GibbsLooper:
    """Bind a compiled tail SELECT to a GibbsLooper.

    Validates the tail-mode shape, runs the Appendix C parameter chooser
    for the requested quantile, and threads the execution policy (options
    + det cache + shard backend) down — mirroring
    :func:`monte_carlo_executor` for the MCDB-R side of the system.
    """
    aggregate = validate_tail_select(compiled, spec)
    p = 1.0 - spec.domain.quantile
    params = choose_parameters(p, tail_budget)
    return GibbsLooper(
        compiled.plan, catalog, params,
        num_samples=spec.montecarlo,
        aggregate_kind=aggregate.kind,
        aggregate_expr=aggregate.expr,
        final_predicate=compiled.pulled_up_predicate,
        k=gibbs_steps,
        window=max(window, max(params.n_steps)),
        base_seed=base_seed, options=options, det_cache=det_cache,
        backend=backend, context=context)


def describe_compiled(compiled: CompiledSelect, tail_mode: bool,
                      det_markers: bool = False) -> str:
    """Pretty-print a compiled SELECT, leaf-last like the paper's Fig. 2.

    Tail queries additionally show the pulled-up predicate and the
    aggregate the GibbsLooper will drive — the planner decisions Appendix A
    prescribes.  This is the text ``Session.explain`` returns, and the
    golden surface the planner tests lock down.

    ``det_markers`` annotates the roots of deterministic subtrees — the
    units the det-cache tiers (context/session) materialize and serve, so
    a replenishment re-run or a structurally overlapping later query
    executes only the unmarked nodes.
    """
    lines = []
    if tail_mode:
        aggregate = compiled.aggregates[0]
        lines.append(
            f"GibbsLooper({aggregate.kind}({aggregate.expr!r})"
            + (f", pulled-up: {compiled.pulled_up_predicate!r}"
               if compiled.pulled_up_predicate is not None else "")
            + ")")
    elif compiled.aggregates:
        names = ", ".join(
            f"{a.kind}({a.expr!r})" for a in compiled.aggregates)
        lines.append(f"Aggregate({names})"
                     + (f" GROUP BY {compiled.group_by}"
                        if compiled.group_by else ""))
    if det_markers:
        plan_text = _describe_with_det_markers(
            compiled.plan, indent=1 if lines else 0)
    else:
        plan_text = compiled.plan.describe(indent=1 if lines else 0)
    return "\n".join(lines + [plan_text])


def _describe_with_det_markers(node: PlanNode, indent: int) -> str:
    """``PlanNode.describe`` with ``[det-cached]`` on cacheable roots.

    Each marker also lists the subtree's dependency set
    (``PlanNode.base_tables()``) — the names whose per-table catalog
    versions the session cache validates the entry against.
    """
    line = "  " * indent + node._describe_line()
    if not node.contains_random:
        # The whole subtree is served from the deterministic cache; its
        # children never re-execute, so one marker at the root suffices.
        deps = ", ".join(sorted(node.base_tables()))
        return line + f"  [det-cached] [deps: {deps}]"
    return "\n".join([line] + [
        _describe_with_det_markers(child, indent + 1)
        for child in node.children])
