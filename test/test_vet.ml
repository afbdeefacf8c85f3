(* The vet static-analysis passes: shipped compositions lint clean and
   hold the inheritance discipline; each seeded miswiring fixture
   produces its expected diagnostic (the linter can see); the schedule
   checker validates the corpus and rejects out-of-signature
   schedules. *)

module A = Vsgc_analysis
module Sched = Vsgc_explore.Schedule
module Sysconf = Vsgc_explore.Sysconf

let check = Alcotest.(check bool)

let has_check c diags = List.exists (fun d -> d.A.Diag.check = c) diags

let diags_to_string diags =
  String.concat "\n" (List.map A.Diag.to_string diags)

let test_fixtures () =
  List.iter
    (fun (f : A.Fixtures.t) ->
      let diags = f.A.Fixtures.run () in
      check
        (Fmt.str "fixture %s reports %s" f.A.Fixtures.name f.A.Fixtures.expect)
        true
        (has_check f.A.Fixtures.expect diags))
    A.Fixtures.all

let test_full_layer_clean () =
  let diags = A.Lint.layer `Full in
  Alcotest.(check string) "full layer lints clean" "" (diags_to_string diags)

let test_server_stack_clean () =
  let diags = A.Lint.server_stack () in
  Alcotest.(check string) "server stack lints clean" "" (diags_to_string diags)

let test_inherit_clean () =
  List.iter
    (fun (r : A.Inherit_check.report) ->
      check (r.A.Inherit_check.pair ^ " corpus is non-vacuous") true
        (r.A.Inherit_check.states > 0 && r.A.Inherit_check.transitions > 0);
      Alcotest.(check string)
        (r.A.Inherit_check.pair ^ " holds the discipline")
        ""
        (diags_to_string r.A.Inherit_check.diags))
    (A.Inherit_check.all ())

let test_corpus_clean () =
  Alcotest.(check string)
    "shipped corpus validates" ""
    (diags_to_string (A.Sched_check.check_dir "corpus"))

(* A hand-built schedule violating all four schedule checks at once. *)
let test_sched_rejects () =
  let conf = Sysconf.make ~n:2 ~layer:`Wv () in
  let bad =
    {
      Sched.name = "bad";
      expect = None;
      conf;
      entries =
        [
          Sched.Choose { owner = 99; key = "send_p0(\"x\")" };
          Sched.Choose { owner = 0; key = "bogus_action()" };
          Sched.Choose
            { owner = 1; key = "co_rfifo.send_p1({p0},sync(c2,v1.0,[]))" };
          Sched.Choose { owner = 1; key = "block_p5()" };
          Sched.Env (Sched.Crash 7);
        ];
    }
  in
  let diags = A.Sched_check.check_sched bad in
  List.iter
    (fun c -> check (c ^ " detected") true (has_check c diags))
    [ "owner-range"; "unknown-action"; "layer-mismatch"; "locus-range" ]

(* [vet effects NAME]: a name selects exactly its audit, no name
   selects every audit, and an unknown name is an error that lists the
   accepted ones. *)
let test_effects_select () =
  let names = function Ok l -> List.map fst l | Error e -> Alcotest.fail e in
  Alcotest.(check (list string))
    "kv-stack selects one audit" [ "kv-stack" ]
    (names (A.Effect_check.select (Some "kv-stack")));
  Alcotest.(check (list string))
    "no name selects every audit"
    (List.map fst A.Effect_check.audits)
    (names (A.Effect_check.select None))

let test_effects_unknown () =
  match A.Effect_check.select (Some "kv-stak") with
  | Ok _ -> Alcotest.fail "a mistyped audit name was accepted"
  | Error msg ->
      let mentions s =
        let n = String.length s in
        let rec at i =
          i + n <= String.length msg && (String.sub msg i n = s || at (i + 1))
        in
        at 0
      in
      check "the error lists the accepted names" true
        (List.for_all (fun (name, _) -> mentions name) A.Effect_check.audits)

let suite =
  [
    Alcotest.test_case "miswiring fixtures are seen" `Quick test_fixtures;
    Alcotest.test_case "full layer wiring is clean" `Quick test_full_layer_clean;
    Alcotest.test_case "server stack wiring is clean" `Quick test_server_stack_clean;
    Alcotest.test_case "inheritance discipline holds" `Quick test_inherit_clean;
    Alcotest.test_case "corpus schedules validate" `Quick test_corpus_clean;
    Alcotest.test_case "out-of-signature schedules are rejected" `Quick
      test_sched_rejects;
    Alcotest.test_case "effects NAME selects one audit" `Quick test_effects_select;
    Alcotest.test_case "effects with an unknown name is an error" `Quick
      test_effects_unknown;
  ]
