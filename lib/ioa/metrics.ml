(* Execution metrics: action counts by category, wire-message counts by
   kind, and communication rounds (filled in by Sync_runner).

   These counters back the benchmark tables (DESIGN.md §6): sync-message
   overhead, forwarded copies, rounds-to-view. *)

open Vsgc_types

type t = {
  mutable steps : int;
  mutable rounds : int;
  mutable cand_hits : int;
      (* scheduling decisions served from a cached candidate list *)
  mutable cand_misses : int;
      (* per-component enabled-output rescans the cache could not avoid *)
  mutable san_steps : int;  (* steps performed under the effect sanitizer *)
  mutable san_diffs : int;
      (* per-participant shadow-state diffs the sanitizer computed *)
  mutable san_races : int;
      (* declared-independent pairs replayed in both orders *)
  mutable san_violations : int;
      (* footprint violations reported (deduplicated) *)
  by_category : (Action.category, int) Hashtbl.t;
  sent_by_kind : (Msg.Wire.kind, int) Hashtbl.t;
      (* point-to-point copies: an Rf_send to k destinations counts k *)
  sent_bytes_by_kind : (Msg.Wire.kind, int) Hashtbl.t;
  delivered_by_kind : (Msg.Wire.kind, int) Hashtbl.t;
}

let create () =
  {
    steps = 0;
    rounds = 0;
    cand_hits = 0;
    cand_misses = 0;
    san_steps = 0;
    san_diffs = 0;
    san_races = 0;
    san_violations = 0;
    by_category = Hashtbl.create 32;
    sent_by_kind = Hashtbl.create 8;
    sent_bytes_by_kind = Hashtbl.create 8;
    delivered_by_kind = Hashtbl.create 8;
  }

let bump tbl k n =
  let cur = match Hashtbl.find_opt tbl k with Some c -> c | None -> 0 in
  Hashtbl.replace tbl k (cur + n)

let record t (a : Action.t) =
  t.steps <- t.steps + 1;
  bump t.by_category (Action.category a) 1;
  match a with
  | Action.Rf_send (_, set, m) ->
      let copies = Proc.Set.cardinal set in
      bump t.sent_by_kind (Msg.Wire.kind m) copies;
      bump t.sent_bytes_by_kind (Msg.Wire.kind m) (copies * Msg.Wire.size_bytes m)
  | Action.Rf_deliver (_, _, m) -> bump t.delivered_by_kind (Msg.Wire.kind m) 1
  | _ -> ()

let steps t = t.steps
let rounds t = t.rounds
let add_round t = t.rounds <- t.rounds + 1
let note_cand_hits t n = t.cand_hits <- t.cand_hits + n
let note_cand_misses t n = t.cand_misses <- t.cand_misses + n
let cand_hits t = t.cand_hits
let cand_misses t = t.cand_misses
let note_san_steps t n = t.san_steps <- t.san_steps + n
let note_san_diffs t n = t.san_diffs <- t.san_diffs + n
let note_san_races t n = t.san_races <- t.san_races + n
let note_san_violations t n = t.san_violations <- t.san_violations + n
let san_steps t = t.san_steps
let san_diffs t = t.san_diffs
let san_races t = t.san_races
let san_violations t = t.san_violations

let category_count t c =
  match Hashtbl.find_opt t.by_category c with Some n -> n | None -> 0

let sent_count t k =
  match Hashtbl.find_opt t.sent_by_kind k with Some n -> n | None -> 0

let sent_bytes t k =
  match Hashtbl.find_opt t.sent_bytes_by_kind k with Some n -> n | None -> 0

let delivered_count t k =
  match Hashtbl.find_opt t.delivered_by_kind k with Some n -> n | None -> 0

let pp ppf t =
  Fmt.pf ppf "steps=%d rounds=%d" t.steps t.rounds;
  Hashtbl.iter
    (fun k n -> Fmt.pf ppf " sent[%s]=%d" (Msg.Wire.kind_to_string k) n)
    t.sent_by_kind
