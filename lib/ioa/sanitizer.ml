(* The effect sanitizer: runtime honesty checking for declared
   footprints (DESIGN.md §14).

   Declared per-action read/write footprints drive the explorer's
   sleep-set pruning; a lying footprint silently prunes real
   interleavings.
   This module is the dynamic half of the honesty certificate: a
   shadow-state mode that, around every performed step,

   - snapshots each participating component's state at declared-loc
     granularity (Component.observe slices) and diffs the digests
     afterwards, recovering the step's ACTUAL write set — any changed
     slice not covered by the participant's declared writes is an
     "undeclared-write" violation;

   - re-evaluates each participant's enabled outputs before and after
     the step; an action whose enabledness flipped was READ-dependent
     on something the step wrote, so if the declared footprints call
     the pair independent that is a "false-independence" violation
     (this recovers an under-approximated read set — reads that never
     change a scheduling decision stay invisible, which is why the
     race replay below exists);

   - every [race_every] steps, picks one declared-independent pair of
     currently-enabled candidates (deterministic rotation, no RNG — a
     sanitized run must stay bit-identical to an unsanitized one) and
     replays it in both orders against saved state: if the second
     action is disabled by the first ("independent-disable") or the
     two orders leave any component's shadow slices different
     ("commute-divergence"), the declared independence is a lie.

   Violations are reported as Diag.t in the same vocabulary the static
   vet passes use; under the [`Raise] policy the first one aborts the
   run (so chaos/replay drivers surface it as a verdict), under
   [`Collect] they accumulate for inspection.

   The sanitizer deliberately sits below the executor: it receives the
   raw component array plus the metrics sink and derives its own
   composition-wide footprints, so the executor depends on it and not
   the other way round. It consumes no randomness and never mutates
   state visibly (race replays restore by value), so attaching it
   cannot perturb a schedule. *)

open Vsgc_types

type policy = [ `Collect | `Raise ]

exception Violation of Diag.t

type t = {
  components : Component.packed array;
  metrics : Metrics.t;
  policy : policy;
  race_every : int;
  fp_cache : (Action.t, Footprint.t) Hashtbl.t;
      (* composition-wide footprint per action, memoized *)
  mutable diags : Diag.t list;  (* newest first; see [diags] *)
  seen : (string, unit) Hashtbl.t;  (* rendered-diag dedup *)
  pre_obs : (Footprint.loc * string) list array;  (* per component *)
  pre_outs : Action.t list array;
  participant : bool array;
  mutable steps : int;
}

let create ?(race_every = 7) ?(policy = `Collect) components metrics =
  let n = Array.length components in
  {
    components;
    metrics;
    policy;
    race_every;
    fp_cache = Hashtbl.create 64;
    diags = [];
    seen = Hashtbl.create 64;
    pre_obs = Array.make n [];
    pre_outs = Array.make n [];
    participant = Array.make n false;
    steps = 0;
  }

let diags t = List.rev t.diags
let violations t = List.length t.diags

let footprint t a =
  match Hashtbl.find_opt t.fp_cache a with
  | Some f -> f
  | None ->
      let f =
        Array.fold_left
          (fun acc c -> Footprint.union acc (Component.footprint c a))
          Footprint.empty t.components
      in
      Hashtbl.add t.fp_cache a f;
      f

let independent t a b = Footprint.independent (footprint t a) (footprint t b)

let report t d =
  let key = Diag.to_string d in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    t.diags <- d :: t.diags;
    Metrics.note_san_violations t.metrics 1;
    match t.policy with `Raise -> raise (Violation d) | `Collect -> ()
  end

let diag check ~subject fmt = Diag.vf ~pass:"sanitize" ~check ~subject fmt

(* Slices whose digest differs between two observations of the same
   component; a slice present on one side only counts as changed
   (absent-vs-default transitions are writes too). Loc lists are tiny
   (one to a few dozen entries), so quadratic scans are fine. *)
let changed_locs pre post =
  let changed = ref [] in
  List.iter
    (fun (l, d) ->
      match List.find_opt (fun (l', _) -> l = l') pre with
      | Some (_, d') -> if not (String.equal d d') then changed := l :: !changed
      | None -> changed := l :: !changed)
    post;
  List.iter
    (fun (l, _) ->
      if not (List.exists (fun (l', _) -> l = l') post) then
        changed := l :: !changed)
    pre;
  !changed

(* Only participants (owner or acceptors) can change state or flip
   enabledness in a step, and [accepts] is state-independent — so the
   participant set is known before the step fires and everyone else
   can be skipped wholesale. *)
let pre t ?owner (a : Action.t) =
  Metrics.note_san_steps t.metrics 1;
  Array.iteri
    (fun i c ->
      let p =
        (match owner with Some o -> o = i | None -> false)
        || Component.accepts c a
      in
      t.participant.(i) <- p;
      if p then begin
        t.pre_obs.(i) <- Component.observe c;
        t.pre_outs.(i) <- Component.outputs c
      end)
    t.components

(* ---- the race replay ---------------------------------------------- *)

let apply_joint t ~owner (a : Action.t) =
  Array.iteri
    (fun i c -> if i = owner || Component.accepts c a then Component.apply c a)
    t.components

(* Replay a declared-independent candidate pair (a owned by i, b owned
   by j) in both orders from the current (post-step) state, then
   restore it by value. The executor's caches stay valid because the
   restored state is identical, not merely equivalent. *)
let race_pair t (i, a) (j, b) =
  Metrics.note_san_races t.metrics 1;
  let restores = Array.map Component.save t.components in
  let restore () = Array.iter (fun f -> f ()) restores in
  let subject =
    Fmt.str "%s || %s" (Action.to_string a) (Action.to_string b)
  in
  let run_order first fo second so =
    let r =
      try
        apply_joint t ~owner:fo first;
        if
          not
            (List.exists (Action.equal second)
               (Component.outputs t.components.(so)))
        then
          Error
            (Fmt.str "%s disables %s" (Action.to_string first)
               (Action.to_string second))
        else begin
          apply_joint t ~owner:so second;
          Ok (Array.map Component.observe t.components)
        end
      with e ->
        restore ();
        raise e
    in
    restore ();
    r
  in
  match (run_order a i b j, run_order b j a i) with
  | Ok o1, Ok o2 ->
      let diverged = ref None in
      Array.iteri
        (fun k obs1 ->
          if !diverged = None then
            match changed_locs obs1 o2.(k) with
            | [] -> ()
            | l :: _ -> diverged := Some (k, l))
        o1;
      Option.iter
        (fun (k, l) ->
          report t
            (diag "commute-divergence" ~subject
               "declared-independent pair does not commute: %s diverges at %a"
               (Component.name t.components.(k))
               Footprint.pp_loc l))
        !diverged
  | Error msg, _ | _, Error msg ->
      report t
        (diag "independent-disable" ~subject
           "declared-independent pair interferes: %s" msg)

(* Deterministically pick one declared-independent pair among the
   currently enabled candidates (bounded scan) and replay it. The
   rotation index comes from the step counter, not an RNG stream —
   fingerprint neutrality is non-negotiable. *)
let max_race_pairs = 32

let race_check t =
  let cands = ref [] in
  Array.iteri
    (fun i c ->
      List.iter (fun a -> cands := (i, a) :: !cands) (Component.outputs c))
    t.components;
  let cands = List.rev !cands in
  let pairs = ref [] in
  let n_pairs = ref 0 in
  let rec scan = function
    | [] -> ()
    | (i, a) :: rest ->
        List.iter
          (fun (j, b) ->
            if
              !n_pairs < max_race_pairs
              && (not (Action.equal a b))
              && independent t a b
            then begin
              pairs := ((i, a), (j, b)) :: !pairs;
              incr n_pairs
            end)
          rest;
        if !n_pairs < max_race_pairs then scan rest
  in
  scan cands;
  match List.rev !pairs with
  | [] -> ()
  | pairs ->
      let pick = t.steps / t.race_every mod List.length pairs in
      let (i, a), (j, b) = List.nth pairs pick in
      race_pair t (i, a) (j, b)

(* ---- per-step checks ---------------------------------------------- *)

let post t ?owner:_ (a : Action.t) =
  let subject = Action.to_string a in
  Array.iteri
    (fun i c ->
      if t.participant.(i) then begin
        Metrics.note_san_diffs t.metrics 1;
        let declared = (Component.footprint c a).Footprint.writes in
        List.iter
          (fun l ->
            if not (List.exists (Footprint.loc_interferes l) declared) then
              report t
                (diag "undeclared-write" ~subject
                   "%s wrote %a outside its declared write set"
                   (Component.name c) Footprint.pp_loc l))
          (changed_locs t.pre_obs.(i) (Component.observe c));
        let outs = Component.outputs c in
        let flipped =
          List.filter
            (fun b -> not (List.exists (Action.equal b) t.pre_outs.(i)))
            outs
          @ List.filter
              (fun b -> not (List.exists (Action.equal b) outs))
              t.pre_outs.(i)
        in
        List.iter
          (fun b ->
            if (not (Action.equal a b)) && independent t a b then
              report t
                (diag "false-independence" ~subject
                   "%s flipped the enabledness of %s at %s, yet their \
                    declared footprints are independent"
                   (Action.to_string a) (Action.to_string b)
                   (Component.name c)))
          flipped
      end)
    t.components;
  t.steps <- t.steps + 1;
  if t.race_every > 0 && t.steps mod t.race_every = 0 then race_check t
