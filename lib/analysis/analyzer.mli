(** The analyzer front-end: run every soundness check on a subject, render
    the results as {!Subc_check.Verdict.t} findings, and mint reduction
    certificates.

    Six checks run per subject, in dependency order:

    + {b reachability} ({!Reach}): enumerate the reachable state space,
      certifying purity and alphabet-totality of [apply] along the way;
    + {b commutation} ({!Commute}): certify the source-set independence
      judgment against fresh diamond computations — refuted findings carry
      a concrete (state, op pair, divergent outcome sets) race witness;
    + {b source-closure} ({!Sourceset}): certify the independence judgment
      is equivariant under the declared group — the closure property the
      (configuration, sleep)-keyed reduction relies on under work
      stealing — and corroborate the per-state diamonds one step out
      (persistence across steps is deliberately {e not} demanded: the
      explorer re-judges carried sleep entries at every state);
    + {b equivariance} ({!Equivariance}): certify the declared permutation
      group is an automorphism group of the reachable transition system;
    + {b recovery} ({!Recovery}): certify the crash-recovery projection
      [persist] is idempotent, closed over the reachable space, and
      commutes with the declared group;
    + {b classification} ({!Classify}): declared vs inferred
      determinism/hang status, plus the value-obliviousness claim.

    Everything is static in the paper's sense: only the object's
    transition function is exercised — no protocol programs run, no
    schedules are explored.  The verdicts obey the usual exit contract
    (proved 0 / refuted 1 / limited 2); a truncated enumeration downgrades
    dependent proofs to [Limited]. *)

open Subc_sim

type finding = {
  family : string;  (** registry family, or "-" for ad-hoc subjects *)
  subject : string;
  check : string;  (** one of {!check_names} *)
  verdict : Subc_check.Verdict.t;
}

val check_names : string list
(** ["reachability"; "commutation"; "source-closure"; "equivariance";
    "recovery"; "classification"]. *)

val analyze_subject :
  ?family:string -> ?deadline:float -> Subject.t -> finding list
(** One finding per check, in the order of {!check_names}.  When
    reachability fails, the dependent checks report [Limited] (skipped)
    rather than running on a broken space.  [deadline] (seconds of wall
    clock) stops starting new checks once it passes; not-yet-started
    checks report [Limited]. *)

val analyze :
  ?family:string ->
  ?jobs:int ->
  ?deadline:float ->
  Subject.t list ->
  finding list
(** [jobs] analyzes that many subjects concurrently (one domain each,
    {!Subc_sim.Parallel.map}); findings keep their deterministic order.
    [deadline] is one shared wall-clock budget across all subjects and
    domains — checks not started before it passes report [Limited]. *)

val verdicts : finding list -> Subc_check.Verdict.t list
val exit_code : finding list -> int
(** {!Subc_check.Verdict.combined_exit} over all findings. *)

val pp_finding : Format.formatter -> finding -> unit
val finding_name : finding -> string
(** ["family/subject/check"], the JSON [check] field. *)

val to_json : finding -> string

val certify :
  family:string ->
  Subject.t list ->
  (Explore.Certificate.t, finding list) result
(** The only legitimate certificate mint outside tests: analyze the
    subjects and attest the discharged obligations iff {e every} finding is
    proved; otherwise return the non-proved findings.  The resulting
    certificate feeds {!Subc_sim.Explore.certified_reduction}. *)

val lint_protocol :
  family:string -> declared:Absint.decl list -> Absint.protocol -> finding
(** One protocol through the abstract interpreter (with the gate's
    enlarged fuel and branch budgets): [Proved] carries the footprint size
    and step bound, any lint is a [Refuted] naming the witnesses, a
    widened analysis is [Limited]. *)

val lint : ?family:string -> unit -> finding list
(** The protocol gate: run the abstract interpreter ({!Absint}) on every
    protocol exemplar of the registry (or of one [family]) against the
    family's declared alphabets.  One finding per protocol with check
    ["lint"]: [Proved] carries the footprint size and step bound, any lint
    is a [Refuted], widening is a [Limited].  The CLI [analyze --lint] and
    the CI gate consume this. *)
