(** Physical query plans.

    Every node carries its output schema, computed by the smart constructors
    below; the executor (see {!Executor}) never re-derives types.  All
    expressions inside a plan are fully resolved ([Expr.Col] positions refer
    to the node's input schema). *)

type order = Asc | Desc

type set_kind = Union | Intersect | Except

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type t = { schema : Schema.t; op : op }

and op =
  | Values of Tuple.t list
  | Scan of { table : string }
  | Index_lookup of { table : string; positions : int array; key : Value.t array }
      (** point lookup on an index covering [positions] *)
  | Filter of Expr.t * t
  | Project of (Expr.t * string) list * t
  | Nl_join of { left : t; right : t; pred : Expr.t option }
      (** nested-loop join; [pred] over the concatenated tuple *)
  | Left_join of { left : t; right : t; pred : Expr.t option }
      (** left outer join: unmatched left rows padded with NULLs *)
  | Set_op of { kind : set_kind; all : bool; left : t; right : t }
      (** UNION / INTERSECT / EXCEPT, set semantics unless [all] *)
  | Hash_join of {
      left : t;
      right : t;
      left_keys : int array;
      right_keys : int array;
      residual : Expr.t option;
    }
  | Aggregate of { group_by : Expr.t list; aggs : (agg * string) list; input : t }
  | Sort of (Expr.t * order) list * t
  | Distinct of t
  | Limit of int * t

(** {1 Smart constructors} — each computes the node's output schema. *)

val values : Schema.t -> Tuple.t list -> t
val scan : Table.t -> alias:string -> t
val index_lookup : Table.t -> alias:string -> positions:int array -> key:Value.t array -> t

val filter : Expr.t -> t -> t
(** A TRUE predicate yields the input unchanged. *)

val project : (Expr.t * string) list -> t -> t

val project_as : Schema.t -> (Expr.t * string) list -> t -> t
(** Projection with an externally supplied output schema (used by the
    planner to restore source order after join reordering without losing
    column names). *)

val nl_join : ?pred:Expr.t -> t -> t -> t
val left_join : ?pred:Expr.t -> t -> t -> t
(** Right-side columns of the output schema become nullable. *)

val set_op : set_kind -> ?all:bool -> t -> t -> t
(** Raises [Schema_error] on an arity mismatch. *)

val hash_join :
  ?residual:Expr.t -> left_keys:int array -> right_keys:int array -> t -> t -> t

val aggregate : group_by:Expr.t list -> aggs:(agg * string) list -> t -> t
val sort : (Expr.t * order) list -> t -> t
val distinct : t -> t
val limit : int -> t -> t

val tables : t -> string list
(** The base-table names the plan reads (lowercased, sorted, deduplicated).
    A plan's result can only change when one of these tables does — the key
    set for dirty-table retry targeting. *)

val constraints : t -> (string * int * (int * Value.t) list) list
(** One entry per base-table access (Scan or Index_lookup): table name
    (lowercased), access arity, and the [(col, const)] equality constraints
    every row must satisfy to enter that access's output — collected from
    top-level [Col = Const] conjuncts reachable through position-stable
    operators (Filter/Sort/Distinct/Limit) plus Index_lookup keys.
    Non-indexable predicates (inequalities, computed expressions,
    disjunctions, anything above a Project/Aggregate/join) contribute
    nothing; the access is still listed with the constraints that {i could}
    be extracted, so consumers only ever widen, never narrow.  The pending
    store's tuple-level constraint index is keyed on these. *)

(** {1 EXPLAIN} *)

val explain : t -> string
