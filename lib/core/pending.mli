(** The pending-query store — the "internal tables that store the list of
    pending queries" of the paper's coordination component.

    Besides the id → query map, the store maintains a {b head index} (for
    every head atom: buckets by answer-relation name plus, per argument
    position, by constant value, with a separate bucket for variable
    positions).  A candidate lookup intersects per-position buckets, pruning
    most of the pending set before any unification is attempted.  A second
    index over the tables each query reads or watches ({!reader_ids}) and
    the equality constraints its accesses pin ({!probe}) drives the
    coordinator's poke and cascade; an answer constraint is indexed there as
    an access of its answer relation.  {!add} computes a query's bucket keys
    once and {!remove} replays them.  There is no scan path: the property
    tests in [test_pending_index.ml] check the indexed lookups against
    unification over the whole store. *)

type t

val create : unit -> t

val size : t -> int
val peak : t -> int
(** Largest size the store ever reached (for the admin interface). *)

val mem : t -> int -> bool
val get : t -> int -> Equery.t option

val add : t -> Equery.t -> unit
(** Raises if the query has no assigned instance id (see
    {!Equery.freshen}). *)

val remove : t -> int -> unit

val exists : (Equery.t -> bool) -> t -> bool
(** Stops at the first query satisfying the predicate; allocates no list. *)

val to_list : t -> Equery.t list

val candidates : t -> Subst.t -> Atom.t -> Equery.t list
(** [candidates t subst atom] — pending queries whose {i head} might unify
    with [atom] (resolved under [subst]). *)

val exists_candidate : t -> Atom.t -> (Equery.t -> bool) -> bool
(** [exists_candidate t atom f] — whether [f] holds for some query
    {!candidates} would return for [atom] under the empty substitution,
    without building the list. *)

val reader_ids : t -> string list -> int list
(** [reader_ids t names] — sorted ids of pending queries whose db-atom
    sub-plans read at least one of the named base tables (case-insensitive)
    {i or} whose answer constraints watch one of them (answer relations are
    catalog tables; fulfilments mutate them through ordinary transactions),
    plus every query touching {i neither} (nothing localises its retries).
    The poke retries these when a table widens, and unions them with
    {!probe} hits before resolving ids to queries. *)

val probe : t -> table:string -> Relational.Tuple.t -> int list
(** [probe t ~table row] — sorted ids of pending queries reading [table]
    whose extracted per-access equality constraints (see
    {!Relational.Plan.constraints}) the committed [row] satisfies.  When
    [table] is an answer relation the accesses are the queries' [IN ANSWER]
    templates, with constant argument positions as the pins — so a freshly
    committed answer tuple probes straight to the partners waiting on it.
    A query absent from the result has every access of [table] pinned to
    constants the row contradicts, so its result cannot be changed by that
    row.  Constraints are an over-approximation: non-indexable predicates
    simply match everything, never narrowing below table-level
    semantics. *)

val bucket_count : t -> int
(** Total live buckets across the internal index hashtables (diagnostics for
    the churn test: removing every query returns this to its baseline). *)

val pp : Format.formatter -> t -> unit
