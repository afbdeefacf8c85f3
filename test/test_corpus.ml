(* The regression corpus: every saved schedule under test/corpus/ must
   replay, against the full monitor + invariant battery, to exactly
   what its expect header records — violating schedules reproduce their
   violation, clean schedules stay clean, and detected-and-rejoined
   schedules heal through the §13 corruption guards. Findings from the
   explorer (devtools/explore.exe) and the chaos driver
   (devtools/chaos.exe) are shrunk and parked here so once-found bugs
   stay found.

   Discovery is a sorted directory scan: both [.sched] (explorer,
   in-memory harness) and [.fault] (chaos, networked deployment) files
   are picked up automatically, any other file in the directory fails
   the suite loudly, and an unparseable corpus file is a test failure —
   never a silent skip. Every file replays under BOTH executor
   scheduling modes (cached and rescan), because a pinned fingerprint
   that only reproduces under one mode is a scheduler bug in hiding. *)

module E = Vsgc_explore
module F = Vsgc_fault
module Executor = Vsgc_ioa.Executor

let corpus_dir = "corpus"

(* -- Discovery ------------------------------------------------------------ *)

let all_files () =
  match Sys.readdir corpus_dir with
  | files ->
      Array.to_list files |> List.sort compare
      |> List.map (Filename.concat corpus_dir)
  | exception Sys_error _ -> []

let sched_files () =
  List.filter (fun f -> Filename.check_suffix f ".sched") (all_files ())

let fault_files () =
  List.filter (fun f -> Filename.check_suffix f ".fault") (all_files ())

let stray_files () =
  List.filter
    (fun f ->
      not
        (Filename.check_suffix f ".sched" || Filename.check_suffix f ".fault"))
    (all_files ())

(* -- Loud-failure guards -------------------------------------------------- *)

let test_corpus_present () =
  if sched_files () = [] then Alcotest.fail "no .sched files under test/corpus";
  if List.length (fault_files ()) < 3 then
    Alcotest.failf "want at least 3 .fault files under test/corpus, got %d"
      (List.length (fault_files ()))

let test_no_stray_files () =
  match stray_files () with
  | [] -> ()
  | strays ->
      Alcotest.failf
        "test/corpus holds files the replay harness cannot discover: %s"
        (String.concat ", " strays)

(* Every corpus file must parse; a half-edited pin must fail the suite,
   not vanish from discovery. *)
let test_corpus_parses () =
  List.iter
    (fun f ->
      match E.Schedule.load f with
      | (_ : E.Schedule.t) -> ()
      | exception E.Schedule.Parse_error m ->
          Alcotest.failf "%s does not parse: %s" f m)
    (sched_files ());
  List.iter
    (fun f ->
      match F.Schedule.load f with
      | (_ : F.Schedule.t) -> ()
      | exception F.Schedule.Parse_error m ->
          Alcotest.failf "%s does not parse: %s" f m)
    (fault_files ())

(* The §13 corruption corpus must never silently shrink away: at least
   one pinned .fault schedule carries a corrupt event. *)
let test_corruption_corpus_present () =
  let has_corrupt f =
    List.exists
      (function F.Schedule.Corrupt _ -> true | _ -> false)
      (F.Schedule.load f).F.Schedule.events
  in
  match List.filter has_corrupt (fault_files ()) with
  | [] -> Alcotest.fail "no pinned .fault schedule carries a corrupt event"
  | _ -> ()

(* The symmetric-arm corpus (DESIGN.md §16) must never silently shrink
   away either: at least a partition-heal and a crash-rejoin pin deploy
   [arm sym], so the Skeen monitor keeps seeing faulted wire traffic. *)
let test_sym_corpus_present () =
  let is_sym f =
    (F.Schedule.load f).F.Schedule.conf.F.Schedule.arm = `Sym
  in
  if List.length (List.filter is_sym (fault_files ())) < 2 then
    Alcotest.fail "want at least 2 pinned sym-arm .fault schedules"

(* -- Replay, under both scheduler modes ----------------------------------- *)

(* [raise_on_lie] forces the raising effect sanitizer on; otherwise the
   ambient VSGC_SANITIZE setting stands. *)
let in_mode ?(raise_on_lie = false) mode body () =
  let ambient = Executor.config () in
  let sanitize = if raise_on_lie then Some `Raise else ambient.Executor.sanitize in
  Executor.with_config { Executor.mode; sanitize } body

let check_sched file () =
  let s = E.Schedule.load file in
  match E.Replay.check s with
  | E.Replay.Reproduced | E.Replay.Clean_ok -> ()
  | E.Replay.Missing kind ->
      Alcotest.failf "%s: replay was clean, expected a %s violation" file kind
  | E.Replay.Unexpected v ->
      Alcotest.failf "%s: unexpected violation %a" file E.Replay.pp_violation v

let check_fault file () =
  let s = F.Schedule.load file in
  Alcotest.(check bool)
    (file ^ " carries a pinned fingerprint")
    true
    (s.F.Schedule.conf.F.Schedule.fingerprint <> None);
  match F.Inject.check s with
  | F.Inject.Reproduced | F.Inject.Clean_ok -> ()
  | F.Inject.Missing kind ->
      Alcotest.failf "%s: replay was clean, expected %s" file kind
  | F.Inject.Unexpected v ->
      Alcotest.failf "%s: unexpected violation %a" file F.Inject.pp_violation v
  | F.Inject.Fingerprint_mismatch { expected; got } ->
      Alcotest.failf "%s: fingerprint drift@.  pinned: %s@.  got:    %s" file
        expected got

let replay_cases =
  List.concat_map
    (fun (mode, raise_on_lie) ->
      let tag f =
        Fmt.str "%s [%s%s]" f
          (match mode with `Cached -> "cached" | `Rescan -> "rescan")
          (if raise_on_lie then "+sanitize" else "")
      in
      let case f check =
        Alcotest.test_case (tag f) `Quick (in_mode ~raise_on_lie mode (check f))
      in
      List.map (fun f -> case f check_sched) (sched_files ())
      @ List.map (fun f -> case f check_fault) (fault_files ()))
    [ (`Cached, false); (`Rescan, false); (`Cached, true); (`Rescan, true) ]

let suite =
  [
    Alcotest.test_case "corpus present" `Quick test_corpus_present;
    Alcotest.test_case "no stray corpus files" `Quick test_no_stray_files;
    Alcotest.test_case "corpus files all parse" `Quick test_corpus_parses;
    Alcotest.test_case "corruption corpus present" `Quick
      test_corruption_corpus_present;
    Alcotest.test_case "sym-arm corpus present" `Quick test_sym_corpus_present;
  ]
  @ replay_cases
