(* Unit tests for the I/O-automaton executor: composition semantics,
   weights, injection, quiescence, filtered runs, monitors and hooks,
   and the environment-derived defaults. *)

open Vsgc_types
module Executor = Vsgc_ioa.Executor
module Component = Vsgc_ioa.Component

let msg s = Msg.App_msg.make s

(* A one-shot emitter: outputs a fixed action until it has fired. *)
let emitter nm action =
  Component.make ~name:nm ~init:false
    ~accepts:(fun _ -> false)
    ~outputs:(fun fired -> if fired then [] else [ action ])
    ~apply:(fun _ a -> Action.equal a action)
    ()

(* A counter of accepted actions. *)
let counter pred =
  let r = ref 0 in
  let def =
    Component.make ~name:"counter" ~init:() ~accepts:pred
      ~outputs:(fun () -> [])
      ~apply:(fun () _ -> incr r)
      ()
  in
  (def, r)

let test_output_reaches_acceptors () =
  let a = Action.App_send (0, msg "x") in
  let c, seen = counter (function Action.App_send (0, _) -> true | _ -> false) in
  let exec = Executor.create ~seed:1 [ Component.pack (emitter "e" a); Component.pack c ] in
  (match Executor.run exec with
  | Executor.Quiescent n -> Alcotest.(check int) "one step to quiescence" 1 n
  | Executor.Step_limit -> Alcotest.fail "no quiescence");
  Alcotest.(check int) "acceptor saw the action" 1 !seen;
  Alcotest.(check bool) "quiescent" true (Executor.is_quiescent exec)

let test_non_acceptor_unaffected () =
  let a = Action.App_send (0, msg "x") in
  let c, seen = counter (function Action.App_send (1, _) -> true | _ -> false) in
  let exec = Executor.create ~seed:1 [ Component.pack (emitter "e" a); Component.pack c ] in
  ignore (Executor.run exec);
  Alcotest.(check int) "other-process acceptor untouched" 0 !seen

let test_zero_weight_disables () =
  let a = Action.App_send (0, msg "x") in
  let weights act = match act with Action.App_send _ -> 0.0 | _ -> 1.0 in
  let exec = Executor.create ~seed:1 ~weights [ Component.pack (emitter "e" a) ] in
  (match Executor.run exec with
  | Executor.Quiescent 0 -> ()
  | _ -> Alcotest.fail "weighted-out action must not fire");
  Alcotest.(check int) "candidate still enabled" 1 (List.length (Executor.candidates exec))

let test_injection () =
  let c, seen = counter (function Action.Crash 3 -> true | _ -> false) in
  let exec = Executor.create ~seed:1 [ Component.pack c ] in
  Executor.inject exec (Action.Crash 3);
  Alcotest.(check int) "injected input delivered" 1 !seen;
  Alcotest.(check int) "trace records it" 1 (Executor.trace_length exec)

let test_determinism () =
  (* same seed, same components => identical traces *)
  let build () =
    let mk i = Component.pack (emitter (Fmt.str "e%d" i) (Action.Block i)) in
    Executor.create ~seed:9 [ mk 0; mk 1; mk 2; mk 3 ]
  in
  let t1 =
    let e = build () in
    ignore (Executor.run e);
    Executor.trace e
  in
  let t2 =
    let e = build () in
    ignore (Executor.run e);
    Executor.trace e
  in
  Alcotest.(check bool) "identical traces" true (List.for_all2 Action.equal t1 t2)

let test_run_filtered () =
  let mk i = Component.pack (emitter (Fmt.str "e%d" i) (Action.Block i)) in
  let exec = Executor.create ~seed:2 [ mk 0; mk 1 ] in
  let steps = Executor.run_filtered exec ~allow:(function Action.Block 0 -> true | _ -> false) in
  Alcotest.(check int) "only the allowed action ran" 1 steps;
  Alcotest.(check int) "the other is still pending" 1 (List.length (Executor.candidates exec))

let test_monitor_violation_propagates () =
  let m =
    Vsgc_ioa.Monitor.make "grumpy" (fun _ ->
        Vsgc_ioa.Monitor.violate ~monitor:"grumpy" "no actions allowed")
  in
  let exec = Executor.create ~seed:1 [ Component.pack (emitter "e" (Action.Block 0)) ] in
  Executor.add_monitor exec m;
  Alcotest.check_raises "violation surfaces"
    (Vsgc_ioa.Monitor.Violation { monitor = "grumpy"; message = "no actions allowed" })
    (fun () -> ignore (Executor.run exec))

let test_finish_reports_residuals () =
  let m =
    Vsgc_ioa.Monitor.make ~at_end:(fun () -> [ "leftover" ]) "residual" (fun _ -> ())
  in
  let exec = Executor.create ~seed:1 [] in
  Executor.add_monitor exec m;
  Alcotest.check_raises "at_end surfaces"
    (Vsgc_ioa.Monitor.Violation { monitor = "residual"; message = "leftover" })
    (fun () -> Executor.finish exec)

let test_stop_condition () =
  let mk i = Component.pack (emitter (Fmt.str "e%d" i) (Action.Block i)) in
  let exec = Executor.create ~seed:3 [ mk 0; mk 1; mk 2 ] in
  let stop () = Executor.trace_length exec >= 2 in
  (match Executor.run ~stop exec with
  | Executor.Quiescent _ -> ()
  | Executor.Step_limit -> Alcotest.fail "stop ignored");
  Alcotest.(check int) "stopped at two steps" 2 (Executor.trace_length exec)

(* -- Configuration ---------------------------------------------------- *)

let parse sched sanitize =
  Executor.config_of_env (function
    | "VSGC_SCHED" -> sched
    | "VSGC_SANITIZE" -> sanitize
    | _ -> None)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_env_sched () =
  let accepted v mode =
    let c, w = parse v None in
    Alcotest.(check bool) (Fmt.str "%a accepted" Fmt.(Dump.option string) v) true (w = []);
    Alcotest.(check bool) "mode" true (c.Executor.mode = mode)
  in
  accepted None `Cached;
  accepted (Some "") `Cached;
  accepted (Some "cached") `Cached;
  accepted (Some "rescan") `Rescan;
  (* parallel and parallel-racy are not modes: they warn like any unknown value *)
  List.iter
    (fun v ->
      let c, w = parse (Some v) None in
      Alcotest.(check bool) (v ^ " falls back to cached") true (c.Executor.mode = `Cached);
      match w with
      | [ msg ] ->
          Alcotest.(check bool) "warning names the accepted values" true
            (contains msg "rescan")
      | _ -> Alcotest.failf "unknown VSGC_SCHED=%s must warn once" v)
    [ "bogus"; "parallel"; "parallel-racy" ]

let test_env_sanitize () =
  let accepted v policy =
    let c, w = parse None v in
    Alcotest.(check bool) "accepted silently" true (w = []);
    Alcotest.(check bool) "policy" true (c.Executor.sanitize = policy)
  in
  accepted None None;
  accepted (Some "") None;
  accepted (Some "0") None;
  accepted (Some "off") None;
  accepted (Some "collect") (Some `Collect);
  accepted (Some "raise") (Some `Raise);
  accepted (Some "on") (Some `Raise);
  accepted (Some "1") (Some `Raise);
  (* The historical trap: an unrecognized value used to silently turn
     the RAISING sanitizer on. Now it warns and stays off. *)
  let c, w = parse None (Some "yes") in
  Alcotest.(check bool) "unknown stays off" true (c.Executor.sanitize = None);
  Alcotest.(check int) "unknown warns" 1 (List.length w)

let test_with_config_scoped () =
  let outer = Executor.config () in
  let inner = { Executor.mode = `Rescan; sanitize = Some `Collect } in
  (try
     Executor.with_config inner (fun () ->
         let exec = Executor.create ~seed:1 [] in
         Alcotest.(check bool) "inner sanitizer attached" true
           (Executor.sanitizer exec <> None);
         failwith "escape")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after a raise" true (Executor.config () = outer)

let suite =
  [
    Alcotest.test_case "output reaches acceptors" `Quick test_output_reaches_acceptors;
    Alcotest.test_case "non-acceptors unaffected" `Quick test_non_acceptor_unaffected;
    Alcotest.test_case "zero weight disables" `Quick test_zero_weight_disables;
    Alcotest.test_case "injection" `Quick test_injection;
    Alcotest.test_case "determinism per seed" `Quick test_determinism;
    Alcotest.test_case "filtered runs" `Quick test_run_filtered;
    Alcotest.test_case "monitor violations propagate" `Quick test_monitor_violation_propagates;
    Alcotest.test_case "finish reports residuals" `Quick test_finish_reports_residuals;
    Alcotest.test_case "stop condition" `Quick test_stop_condition;
    Alcotest.test_case "config: VSGC_SCHED parses loudly" `Quick test_env_sched;
    Alcotest.test_case "config: VSGC_SANITIZE parses loudly" `Quick test_env_sanitize;
    Alcotest.test_case "config: with_config is scoped" `Quick test_with_config_scoped;
  ]
