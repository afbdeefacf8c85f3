(* qcheck laws for the vocabulary data structures. *)

open Vsgc_types

let rand = Random.State.make [| 0xD00D |]
let mk t = QCheck_alcotest.to_alcotest ~rand t

(* -- Fqueue: behaves as a list queue -------------------------------------- *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (frequency
         [
           (3, map (fun n -> `Push n) small_int);
           (2, return `Pop);
           (2, return `Peek);
           (1, return `Drop_last);
         ]))

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Push n -> Fmt.str "push %d" n
             | `Pop -> "pop"
             | `Peek -> "peek"
             | `Drop_last -> "drop")
           ops))

(* Every operation against a plain list, with the contents and the
   length compared after each step. *)
let fqueue_model =
  QCheck.Test.make ~count:300 ~name:"Fqueue behaves as a list queue" arb_ops (fun ops ->
      let agree (q, model) =
        if Fqueue.to_list q = model && Fqueue.length q = List.length model then (q, model)
        else QCheck.Test.fail_report "contents or length mismatch"
      in
      let q, model =
        List.fold_left
          (fun (q, model) op ->
            agree
            @@
            match op with
            | `Push n -> (Fqueue.push q n, model @ [ n ])
            | `Pop -> (
                match (Fqueue.pop q, model) with
                | Some (x, q'), m :: rest when x = m -> (q', rest)
                | None, [] -> (q, [])
                | _ -> QCheck.Test.fail_report "pop mismatch")
            | `Peek -> (
                match (Fqueue.peek q, model) with
                | Some x, m :: _ when x = m -> (q, model)
                | None, [] -> (q, model)
                | _ -> QCheck.Test.fail_report "peek mismatch")
            | `Drop_last -> (
                match (Fqueue.drop_last q, List.rev model) with
                | Some q', _ :: rev_rest -> (q', List.rev rev_rest)
                | None, [] -> (q, [])
                | _ -> QCheck.Test.fail_report "drop_last mismatch"))
          (Fqueue.empty, []) ops
      in
      Fqueue.to_list q = model && Fqueue.length q = List.length model)

(* -- Cut: max_over laws ----------------------------------------------------- *)

let arb_cut =
  QCheck.make
    QCheck.Gen.(
      map
        (fun l -> Msg.Cut.of_bindings (List.map (fun (p, i) -> (p mod 6, i mod 20)) l))
        (list_size (int_range 0 8) (pair small_int small_int)))
    ~print:(Fmt.str "%a" Msg.Cut.pp)

let cut_max_over_laws =
  QCheck.Test.make ~count:300 ~name:"Cut.max_over: pointwise, monotone, commutative"
    QCheck.(triple arb_cut arb_cut (QCheck.make QCheck.Gen.(int_range 0 5)))
    (fun (a, b, q) ->
      let m = Msg.Cut.max_over [ a; b ] q in
      m = max (Msg.Cut.get a q) (Msg.Cut.get b q)
      && m = Msg.Cut.max_over [ b; a ] q
      && m >= Msg.Cut.get a q
      && Msg.Cut.max_over [ a ] q = Msg.Cut.get a q)

let cut_zero_normalization =
  QCheck.Test.make ~count:200 ~name:"Cut: zero entries are identities" arb_cut (fun c ->
      Msg.Cut.equal (Msg.Cut.set c 3 0) (Msg.Cut.set (Msg.Cut.set c 3 0) 3 0)
      && Msg.Cut.get (Msg.Cut.set c 4 0) 4 = 0)

(* -- View.Id: total order laws ---------------------------------------------- *)

let arb_vid =
  QCheck.make
    QCheck.Gen.(map2 (fun n o -> View.Id.make ~num:(n mod 50) ~origin:(o mod 8)) small_int small_int)
    ~print:(Fmt.str "%a" View.Id.pp)

let vid_total_order =
  QCheck.Test.make ~count:300 ~name:"View.Id is a total order with zero as minimum"
    QCheck.(triple arb_vid arb_vid arb_vid)
    (fun (a, b, c) ->
      let ( <= ) x y = View.Id.compare x y <= 0 in
      (a <= b || b <= a)
      && ((not (a <= b && b <= c)) || a <= c)
      && (View.Id.equal a b = (a <= b && b <= a))
      && View.Id.zero <= a
      && View.Id.lt a (View.Id.succ_from ~origin:0 a))

(* -- Wire: size model positive and equality reflexive ------------------------ *)

let arb_wire =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun s -> Msg.Wire.App (Msg.App_msg.make s)) string_small;
          map (fun p -> Msg.Wire.View_msg (View.initial (abs p mod 8))) small_int;
          map2
            (fun p i ->
              Msg.Wire.Fwd
                { origin = abs p mod 8; view = View.initial (abs p mod 8);
                  index = 1 + (abs i mod 10); msg = Msg.App_msg.make "f" })
            small_int small_int;
          map
            (fun c ->
              Msg.Wire.Sync { cid = 1; view = View.initial 0; cut = c })
            arb_cut.QCheck.gen;
        ])
  in
  QCheck.make gen ~print:(Fmt.str "%a" Msg.Wire.pp)

let wire_laws =
  QCheck.Test.make ~count:300 ~name:"Wire: equality reflexive, size positive" arb_wire
    (fun w -> Msg.Wire.equal w w && Msg.Wire.size_bytes w > 0)

let suite =
  List.map mk
    [ fqueue_model; cut_max_over_laws; cut_zero_normalization; vid_total_order; wire_laws ]
