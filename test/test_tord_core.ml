(* Unit tests for the total-order core: sequencer announcements,
   order-before-data races, deterministic flushes, cross-member
   agreement under random interleavings (qcheck). *)

open Vsgc_types
module Core = Vsgc_totalorder.Tord_core

let view ~num ~members =
  let set = Proc.Set.of_list members in
  View.make
    ~id:(View.Id.make ~num ~origin:0)
    ~set
    ~start_ids:(Proc.Set.fold (fun p m -> Proc.Map.add p 1 m) set Proc.Map.empty)

let payloads t =
  List.map
    (fun (e : Core.entry) -> e.Core.payload)
    (Vsgc_totalorder.Tord_log.to_list (Core.log t))

let test_sequencer_announces () =
  let v = view ~num:1 ~members:[ 0; 1 ] in
  let t, _ = Core.on_view (Core.create 0) ~view:v ~transitional:Proc.Set.empty in
  Alcotest.(check bool) "minimum member sequences" true (Core.is_sequencer t);
  let _, newly, ann = Core.on_deliver t ~sender:1 ~payload:(Core.encode_data "a") in
  Alcotest.(check int) "one announcement" 1 (List.length ann);
  Alcotest.(check int) "nothing ordered before the announcement returns" 0 (List.length newly)

let test_non_sequencer_waits () =
  let v = view ~num:1 ~members:[ 0; 1 ] in
  let t, _ = Core.on_view (Core.create 1) ~view:v ~transitional:Proc.Set.empty in
  Alcotest.(check bool) "p1 is not the sequencer" false (Core.is_sequencer t);
  let t, newly, ann = Core.on_deliver t ~sender:0 ~payload:(Core.encode_data "a") in
  Alcotest.(check int) "no announcements from followers" 0 (List.length ann);
  Alcotest.(check int) "data pends" 0 (List.length newly);
  (* the sequencer's announcement arrives: now it is ordered *)
  let _, newly, _ =
    Core.on_deliver t ~sender:0 ~payload:(Core.encode_order ~sender:0 ~index:1)
  in
  Alcotest.(check int) "ordered on announcement" 1 (List.length newly)

let test_order_before_data () =
  (* announcements may overtake data from other senders; ordering waits *)
  let v = view ~num:1 ~members:[ 0; 1; 2 ] in
  let t, _ = Core.on_view (Core.create 1) ~view:v ~transitional:Proc.Set.empty in
  let t, newly, _ =
    Core.on_deliver t ~sender:0 ~payload:(Core.encode_order ~sender:2 ~index:1)
  in
  Alcotest.(check int) "order queued, nothing delivered" 0 (List.length newly);
  let _, newly, _ = Core.on_deliver t ~sender:2 ~payload:(Core.encode_data "late") in
  Alcotest.(check (list string))
    "delivered when the data lands"
    [ "late" ]
    (List.map (fun (e : Core.entry) -> e.Core.payload) newly)

let test_flush_is_deterministic () =
  (* unannounced messages flush in (sender, index) order at the view
     boundary — same at every member with the same pending set *)
  let v1 = view ~num:1 ~members:[ 0; 1; 2 ] in
  let v2 = view ~num:2 ~members:[ 0; 1; 2 ] in
  let feed t =
    let t, _ = Core.on_view t ~view:v1 ~transitional:Proc.Set.empty in
    let t, _, _ = Core.on_deliver t ~sender:2 ~payload:(Core.encode_data "c1") in
    let t, _, _ = Core.on_deliver t ~sender:1 ~payload:(Core.encode_data "b1") in
    let t, _, _ = Core.on_deliver t ~sender:2 ~payload:(Core.encode_data "c2") in
    let t, flushed = Core.on_view t ~view:v2 ~transitional:Proc.Set.empty in
    (t, List.map (fun (e : Core.entry) -> e.Core.payload) flushed)
  in
  (* p1 and p2 are followers (p0 sequences); they never saw
     announcements, so everything flushes *)
  let _, f1 = feed (Core.create 1) in
  let _, f2 = feed (Core.create 2) in
  Alcotest.(check (list string)) "flush order is (sender, index)" [ "b1"; "c1"; "c2" ] f1;
  Alcotest.(check (list string)) "identical at both members" f1 f2

let test_announced_prefix_then_flush () =
  let v1 = view ~num:1 ~members:[ 0; 1 ] in
  let v2 = view ~num:2 ~members:[ 0; 1 ] in
  let t, _ = Core.on_view (Core.create 1) ~view:v1 ~transitional:Proc.Set.empty in
  let t, _, _ = Core.on_deliver t ~sender:0 ~payload:(Core.encode_data "x") in
  let t, _, _ = Core.on_deliver t ~sender:1 ~payload:(Core.encode_data "y") in
  (* only x gets announced before the change *)
  let t, _, _ = Core.on_deliver t ~sender:0 ~payload:(Core.encode_order ~sender:0 ~index:1) in
  let t, _ = Core.on_view t ~view:v2 ~transitional:Proc.Set.empty in
  Alcotest.(check (list string)) "announced prefix precedes the flush" [ "x"; "y" ] (payloads t)

(* qcheck: two followers fed the same per-sender FIFO streams in
   different global interleavings end with the same total order. *)
let prop_interleaving_agnostic =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (pair (int_range 0 2) (int_range 0 1)))
  in
  QCheck.Test.make ~count:100 ~name:"total order independent of interleaving"
    (QCheck.make gen) (fun script ->
      (* build per-sender streams: data from senders 0..2, with the
         sequencer's announcements interleaved per the script bit *)
      let v = view ~num:1 ~members:[ 0; 1; 2; 3 ] in
      let events =
        List.mapi
          (fun i (sender, _) -> (sender, Core.encode_data (Fmt.str "m%d" i)))
          script
      in
      (* follower A sees events in script order, with announcements
         right after each data; follower B sees all data first (per
         sender FIFO preserved), then all announcements *)
      let counts = Hashtbl.create 4 in
      let indexed =
        List.map
          (fun (s, p) ->
            let i = (match Hashtbl.find_opt counts s with Some n -> n | None -> 0) + 1 in
            Hashtbl.replace counts s i;
            (s, p, i))
          events
      in
      let feed order =
        let t, _ = Core.on_view (Core.create 3) ~view:v ~transitional:Proc.Set.empty in
        List.fold_left
          (fun t (sender, payload) ->
            let t, _, _ = Core.on_deliver t ~sender ~payload in
            t)
          t order
      in
      let a_order =
        List.concat_map
          (fun (s, p, i) -> [ (s, p); (0, Core.encode_order ~sender:s ~index:i) ])
          indexed
      in
      let b_order =
        List.map (fun (s, p, _) -> (s, p)) indexed
        @ List.map (fun (s, _, i) -> (0, Core.encode_order ~sender:s ~index:i)) indexed
      in
      payloads (feed a_order) = payloads (feed b_order))

let suite =
  [
    Alcotest.test_case "sequencer announces" `Quick test_sequencer_announces;
    Alcotest.test_case "followers wait for announcements" `Quick test_non_sequencer_waits;
    Alcotest.test_case "order before data" `Quick test_order_before_data;
    Alcotest.test_case "deterministic flush" `Quick test_flush_is_deterministic;
    Alcotest.test_case "announced prefix then flush" `Quick test_announced_prefix_then_flush;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 77 |]) prop_interleaving_agnostic;
  ]
