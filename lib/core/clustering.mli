(** Cluster identification — Algorithm 2: fixed-point recombination of
    candidate instances into clusters whose aggregated I/O pins respect
    the designer limit and whose members are pairwise independent. *)

module V = Alice_verilog
module A = Alice_analysis
module C = Alice_config

type cluster = {
  members : V.Design.tree list;  (** sorted by path *)
  io_pins : int;                 (** aggregated *)
  key : string;                  (** canonical identity *)
}

val make_cluster : V.Elaborate.design -> V.Design.tree list -> cluster

val member_count : cluster -> int

(** CheckParameters of Algorithm 2 on an aggregated cluster. *)
val check_parameters : C.Flow_config.t -> cluster -> bool

(** Pairwise independence of a cluster's members, per the configured
    dependence notion. *)
val cluster_independent : C.Flow_config.t -> A.Dataflow.t -> cluster -> bool

(** The fixed point of Algorithm 2: all candidate clusters C — the
    singletons in candidate order, then each round's unions in the
    order the pseudocode's pair loop finds them. Clusters are bitsets
    over the candidates, and pairs a previous round already tried are
    skipped; the list is the plain pair loop's. *)
val run : A.Dataflow.t -> C.Flow_config.t -> Filtering.result -> cluster list

(** Do the clusters share no instance? (Algorithm 3's combination
    predicate.) *)
val disjoint : cluster -> cluster -> bool
