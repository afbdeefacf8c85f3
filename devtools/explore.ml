(* Schedule-explorer CLI.

     explore find   [opts]          bounded DFS for a violation; shrink + save
     explore replay FILE.sched      deterministically re-execute a saved schedule
     explore shrink FILE.sched      ddmin-minimize a saved violating schedule

   The default driving prefix for [find] scripts one reconfiguration to
   the full member set, lets it settle, injects application traffic,
   then queues (but does not run) a second membership change — leaving
   the view-change protocol's interleavings to the DFS. *)

open Vsgc_types
module E = Vsgc_explore

let die fmt = Fmt.kstr (fun s -> Fmt.epr "explore: %s@." s; exit 2) fmt

(* -- Options ------------------------------------------------------------- *)

let n = ref 2
let seed = ref 42
let layer = ref (`Full : Vsgc_core.Endpoint.layer)
let mutation = ref (None : Vsgc_core.Vs_rfifo_ts.mutation option)
let depth = ref 4
let max_runs = ref 10_000
let probe = ref true
let shrink = ref true
let sender = ref 1
let sends = ref 1
let out = ref ""
let name = ref ""
let quiet = ref false

let common =
  [
    ("-quiet", Arg.Set quiet, " only print the outcome line");
  ]

let find_opts =
  [
    ("-n", Arg.Set_int n, "N processes 0..N-1 (default 2)");
    ("-seed", Arg.Set_int seed, "S scheduler seed (default 42)");
    ( "-layer",
      Arg.String (fun s -> layer := E.Sysconf.layer_of_string s),
      "L wv|vs|full (default full)" );
    ( "-mutation",
      Arg.String (fun s -> mutation := E.Sysconf.mutation_of_string s),
      "M none|no_sync_wait (default none)" );
    ("-depth", Arg.Set_int depth, "D DFS depth bound (default 4)");
    ("-max-runs", Arg.Set_int max_runs, "R replay budget (default 10000)");
    ("-no-probe", Arg.Clear probe, " do not settle leaves to completion");
    ("-no-shrink", Arg.Clear shrink, " save the raw finding unshrunk");
    ("-sender", Arg.Set_int sender, "P process sending traffic (default 1)");
    ("-sends", Arg.Set_int sends, "K messages from the sender (default 1)");
    ("-o", Arg.Set_string out, "FILE save the (shrunk) finding here");
    ("-name", Arg.Set_string name, "NAME schedule name header");
  ]
  @ common

let default_prefix all =
  [
    E.Schedule.Env (E.Schedule.Reconfigure { origin = 0; set = all });
    E.Schedule.Settle;
  ]
  @ List.init !sends (fun i ->
        E.Schedule.Env
          (E.Schedule.Send { from = !sender; payload = Fmt.str "m%d" (i + 1) }))
  @ [
      E.Schedule.Env (E.Schedule.Start_change all);
      E.Schedule.Env (E.Schedule.Deliver_view { origin = 1; set = all });
    ]

let cmd_find args =
  Arg.parse_argv ~current:(ref 0)
    (Array.of_list (Sys.argv.(0) :: args))
    (Arg.align find_opts)
    (fun a -> die "find takes no positional argument (got %S)" a)
    "explore find [options]";
  if !sender < 0 || !sender >= !n then die "-sender out of range for -n %d" !n;
  let conf = E.Sysconf.make ~seed:!seed ~layer:!layer ?mutation:!mutation ~n:!n () in
  let all = Proc.Set.of_range 0 (!n - 1) in
  let sched_name = if !name <> "" then !name else Fmt.str "find-%a" E.Sysconf.pp conf in
  let sched =
    { E.Schedule.name = sched_name; expect = None; conf; entries = default_prefix all }
  in
  let t0 = Unix.gettimeofday () in
  let report =
    E.Explorer.explore ~depth:!depth ~max_runs:!max_runs ~probe:!probe sched
  in
  let dt = Unix.gettimeofday () -. t0 in
  if not !quiet then
    Fmt.pr "%a (%.2fs)@." E.Explorer.pp_report report dt;
  match report.E.Explorer.outcome with
  | E.Explorer.Found (found, v) ->
      Fmt.pr "violation: %a@." E.Replay.pp_violation v;
      let final = if !shrink then E.Shrink.minimize found else found in
      if not !quiet then
        Fmt.pr "schedule: %d entries (%d before shrinking)@."
          (List.length final.E.Schedule.entries)
          (List.length found.E.Schedule.entries);
      if !out <> "" then begin
        E.Schedule.save final !out;
        Fmt.pr "saved: %s@." !out
      end
      else if not !quiet then Fmt.pr "%a@." E.Schedule.pp final;
      exit 0
  | E.Explorer.Exhausted ->
      Fmt.pr "no violation (tree exhausted)@.";
      exit 1
  | E.Explorer.Run_budget ->
      Fmt.pr "no violation (run budget spent)@.";
      exit 1

let cmd_replay args =
  let rec strip acc = function
    | [] -> List.rev acc
    | "-quiet" :: rest ->
        quiet := true;
        strip acc rest
    | f :: rest -> strip (f :: acc) rest
  in
  let files = strip [] args in
  if files = [] then die "replay needs at least one FILE.sched";
  let bad = ref 0 in
  List.iter
    (fun file ->
      let sched = E.Schedule.load file in
      (match E.Replay.check sched with
      | E.Replay.Reproduced ->
          Fmt.pr "%s: reproduced %s@." file (Option.get sched.E.Schedule.expect)
      | E.Replay.Clean_ok -> Fmt.pr "%s: clean, as expected@." file
      | E.Replay.Missing kind ->
          incr bad;
          Fmt.pr "%s: FAILED to reproduce expected %s@." file kind
      | E.Replay.Unexpected v ->
          incr bad;
          Fmt.pr "%s: UNEXPECTED %a@." file E.Replay.pp_violation v);
      if not !quiet then Fmt.pr "%a@." E.Schedule.pp sched)
    files;
  exit (if !bad = 0 then 0 else 1)

let cmd_shrink args =
  match List.filter (fun a -> not (String.length a > 0 && a.[0] = '-')) args with
  | [ file ] | [ file; _ ] as pos ->
      let out = match pos with [ _; o ] -> o | _ -> file in
      let sched = E.Schedule.load file in
      let before = List.length sched.E.Schedule.entries in
      let small = E.Shrink.minimize sched in
      E.Schedule.save small out;
      Fmt.pr "%s: %d -> %d entries, saved to %s@." file before
        (List.length small.E.Schedule.entries)
        out;
      exit 0
  | _ -> die "usage: explore shrink FILE.sched [OUT.sched]"

let usage () =
  Fmt.epr
    "usage:@.  explore find [options]    (try: explore find -mutation \
     no_sync_wait)@.  explore replay FILE.sched...@.  explore shrink FILE.sched \
     [OUT.sched]@.";
  exit 2

let () =
  try
    match Array.to_list Sys.argv with
    | _ :: "find" :: args -> cmd_find args
    | _ :: "replay" :: args -> cmd_replay args
    | _ :: "shrink" :: args -> cmd_shrink args
    | _ -> usage ()
  with
  | E.Schedule.Parse_error msg -> die "parse error: %s" msg
  | Sys_error msg -> die "%s" msg
  | Invalid_argument msg -> die "%s" msg
