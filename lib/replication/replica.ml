(* A replicated key-value state machine over the totally ordered
   multicast layer — the application motif the paper gives for Virtual
   Synchrony (§4.1.2): "a group communication system that supports
   Virtual Synchrony allows processes to avoid such costly exchange
   among processes that continue together from one view to the next."

   Commands ("set key value") are multicast through the total order, so
   replicas that stay together remain byte-identical with no extra
   synchronization. When groups merge, state transfer is needed only
   ACROSS groups: the minimum member of each transitional set multicasts
   one snapshot, and replicas adopt the highest-versioned snapshot they
   deliver (all through the same total order, so deterministically).
   The [transfer_blind] ablation models a system without transitional
   sets, in which every member must ship its snapshot at every view
   change — the cost difference is measured by bench E8.

   The codec, the fold, strict mode and the snapshot rule are written
   once, in [Make], over any total-order arm ({!Vsgc_totalorder.Total_order.S}):
   the top level is the sequencer-arm instance and [Sym] the symmetric
   one, so both arms' states are the same pure function of their
   ordered logs and cross-arm digest comparison is meaningful. *)

open Vsgc_types
module Smap = Map.Make (String)

exception Codec_drift of string
(* Raised in strict mode when an undecodable command reaches the
   totally ordered log — codec drift between writers and replicas
   should be loud, not silently skipped. *)

(* -- Command and snapshot encoding (inside total-order payloads) --------- *)

let encode_set ~key ~value = Fmt.str "S%s=%s" key value

(* A KV-service write: like [Set] but stamped with the originating load
   client's command id (client, seq), so retransmissions stay
   idempotent and acknowledgements dedup by id (DESIGN.md §15). *)
let encode_write ~client ~seq ~key ~value =
  Fmt.str "W%d:%d:%s=%s" client seq key value

let encode_snapshot ~version kv =
  let body =
    Smap.bindings kv |> List.map (fun (k, v) -> k ^ "=" ^ v) |> String.concat ";"
  in
  Fmt.str "X%d:%s" version body

type cmd =
  | Set of string * string
  | Write of { client : int; seq : int; key : string; value : string }
  | Snapshot of int * string Smap.t
  | Unknown

let decode s =
  if String.length s = 0 then Unknown
  else
    match s.[0] with
    | 'S' -> (
        match String.index_opt s '=' with
        | Some i ->
            Set (String.sub s 1 (i - 1), String.sub s (i + 1) (String.length s - i - 1))
        | None -> Unknown)
    | 'W' -> (
        let body = String.sub s 1 (String.length s - 1) in
        match String.index_opt body ':' with
        | None -> Unknown
        | Some i -> (
            match String.index_from_opt body (i + 1) ':' with
            | None -> Unknown
            | Some j -> (
                match
                  ( int_of_string_opt (String.sub body 0 i),
                    int_of_string_opt (String.sub body (i + 1) (j - i - 1)) )
                with
                | Some client, Some seq -> (
                    let rest =
                      String.sub body (j + 1) (String.length body - j - 1)
                    in
                    match String.index_opt rest '=' with
                    | Some k ->
                        Write
                          {
                            client;
                            seq;
                            key = String.sub rest 0 k;
                            value =
                              String.sub rest (k + 1)
                                (String.length rest - k - 1);
                          }
                    | None -> Unknown)
                | _ -> Unknown)))
    | 'X' -> (
        match String.index_opt s ':' with
        | Some i -> (
            match int_of_string_opt (String.sub s 1 (i - 1)) with
            | Some version ->
                let body = String.sub s (i + 1) (String.length s - i - 1) in
                let kv =
                  List.fold_left
                    (fun acc pair ->
                      match String.index_opt pair '=' with
                      | Some j ->
                          Smap.add (String.sub pair 0 j)
                            (String.sub pair (j + 1) (String.length pair - j - 1))
                            acc
                      | None -> acc)
                    Smap.empty
                    (if body = "" then [] else String.split_on_char ';' body)
                in
                Snapshot (version, kv)
            | None -> Unknown)
        | None -> Unknown)
    | _ -> Unknown

(* -- Deterministic state: fold the total order ---------------------------- *)

(* Replaying the totally ordered log is what makes every replica's
   state a pure function of the (agreed) log: commands bump the
   version; a snapshot merges key-wise with the snapshot's values
   winning. Because snapshots occupy the same totally ordered log,
   replicas coming from different partitions fold different prefixes
   but identical merge suffixes, and every key present in any snapshot
   converges — the snapshots carry each group's complete state, so
   nothing else survives a merge unmerged. *)
let fold_state entries =
  List.fold_left
    (fun (version, kv) (_, payload) ->
      match decode payload with
      | Set (k, v) | Write { key = k; value = v; _ } ->
          (version + 1, Smap.add k v kv)
      | Snapshot (ver, snap_kv) ->
          (max version ver, Smap.union (fun _ _mine theirs -> Some theirs) kv snap_kv)
      | Unknown -> (version, kv))
    (0, Smap.empty) entries

module type S = sig
  type t

  include Vsgc_totalorder.Total_order.S with type t := t

  val unknowns : t -> int
  val state : t -> string Smap.t
  val version : t -> int
  val get : t -> string -> string option
  val set : t ref -> key:string -> value:string -> unit

  val write :
    t ref -> client:int -> seq:int -> key:string -> value:string -> unit
end

module Make (O : Vsgc_totalorder.Total_order.S) = struct
  type t = {
    tc : O.t;
    me : Proc.t;
    transfer_blind : bool;  (* ablation: no transitional-set knowledge *)
    snapshot_bytes : int;  (* total snapshot payload bytes multicast *)
    snapshots_sent : int;
    strict : bool;  (* raise on Unknown ordered commands *)
    unknowns : int;  (* Unknown commands tolerated (non-strict mode) *)
  }

  let unknowns t = t.unknowns

  (* -- The total order underneath ----------------------------------------- *)

  let push (r : t ref) payload =
    let tc = ref !r.tc in
    O.push tc payload;
    r := { !r with tc = !tc }

  let total_order t = O.total_order t.tc
  let views t = O.views t.tc
  let last_view t = O.last_view t.tc
  let crashed t = O.crashed t.tc
  let block_status t = O.block_status t.tc

  (* The cursor the incremental KV store ({!Vsgc_kv.Kv_store}) consumes
     the log through, instead of refolding [state] per request. *)
  let log_length t = O.log_length t.tc
  let ordered_from t k = O.ordered_from t.tc k

  (* -- Deterministic state and scripting ---------------------------------- *)

  let state t = snd (fold_state (total_order t))
  let version t = fst (fold_state (total_order t))
  let get t key = Smap.find_opt key (state t)
  let set r ~key ~value = push r (encode_set ~key ~value)

  let write r ~client ~seq ~key ~value =
    push r (encode_write ~client ~seq ~key ~value)

  (* -- Component ---------------------------------------------------------- *)

  let outputs t = O.outputs t.tc
  let accepts = O.accepts

  (* The replica shares the arm's locus: everything is co-located at
     me, so the arm's footprint and output signature are the replica's. *)
  let footprint = O.footprint
  let emits = O.emits

  (* Ship a snapshot when new members join this replica's group: with
     transitional sets, only the group minimum sends; blind, everybody
     does at every change. *)
  let should_send_snapshot t view tset =
    let joined = not (Proc.Set.equal (View.set view) tset) in
    if t.transfer_blind then View.mem t.me view
    else joined && Proc.Set.min_elt_opt tset = Some t.me

  (* Strict mode makes codec drift loud the moment an undecodable
     command becomes totally ordered; otherwise it is tolerated and
     counted. Newly ordered entries are exactly the log suffix past the
     pre-event count (a reborn arm restarts the count at zero, so the
     clamped cursor read skips nothing real). *)
  let check_unknowns t ~before =
    let fresh =
      List.fold_left
        (fun acc payload ->
          match decode payload with Unknown -> acc + 1 | _ -> acc)
        0 (ordered_from t before)
    in
    if fresh = 0 then t
    else if t.strict then
      raise
        (Codec_drift
           (Fmt.str "replica %a: %d undecodable ordered command%s" Proc.pp t.me
              fresh
              (if fresh = 1 then "" else "s")))
    else { t with unknowns = t.unknowns + fresh }

  let apply t (a : Action.t) =
    let before = log_length t in
    let t = check_unknowns { t with tc = O.apply t.tc a } ~before in
    match a with
    | Action.App_view (_, view, tset)
      when (not (crashed t)) && should_send_snapshot t view tset ->
        let snap = encode_snapshot ~version:(version t) (state t) in
        let r = ref t in
        push r snap;
        { !r with
          snapshot_bytes = t.snapshot_bytes + String.length snap;
          snapshots_sent = t.snapshots_sent + 1 }
    | _ -> t

  let component_of ~transfer_blind ~strict me tc =
    let init =
      {
        tc;
        me;
        transfer_blind;
        snapshot_bytes = 0;
        snapshots_sent = 0;
        strict;
        unknowns = 0;
      }
    in
    let def : t Vsgc_ioa.Component.def =
      {
        name = Fmt.str "replica_%a" Proc.pp me;
        init;
        accepts = accepts me;
        outputs;
        apply;
        footprint = footprint me;
        emits = emits me;
        observe =
          (fun st ->
            [ (Vsgc_ioa.Footprint.Proc_state me, Vsgc_ioa.Component.digest st) ]);
      }
    in
    let r = ref init in
    (Vsgc_ioa.Component.pack_with_ref def r, r)
end

(* -- The sequencer-arm instance ------------------------------------------- *)

module Tord_client = Vsgc_totalorder.Tord_client
include Make (Tord_client)

(* Under the executor strict mode defaults ON: a deployed replica that
   orders an undecodable command has a codec-drift bug worth a crash,
   not a skipped entry. *)
let component ?(transfer_blind = false) ?(strict = true) ?batch_orders me =
  component_of ~transfer_blind ~strict me (Tord_client.initial ?batch_orders me)

(* -- The symmetric-arm instance (DESIGN.md §16) --------------------------- *)

module Sym = struct
  module Tord_sym_client = Vsgc_totalorder.Tord_sym_client
  include Make (Tord_sym_client)

  let component ?(strict = true) me =
    component_of ~transfer_blind:false ~strict me (Tord_sym_client.initial me)
end
