(* Static-analysis driver for the composed automata.

     vet wiring             lint every shipped composition (3 Sysconf
                            layers + the client-server stack)
     vet inherit            check the inheritance discipline of the
                            WV_RFIFO -> VS_RFIFO+TS -> GCS tower
     vet effects            audit footprint honesty: coarse fallbacks,
                            emit/footprint cross-checks, write-set
                            totality over driven runs, inheritance of
                            declared effects (DESIGN.md §14)
     vet corpus [DIR]       validate saved schedules against their
                            declared layer's action signature
                            (default test/corpus)
     vet fixture NAME       run one seeded miswiring fixture; MUST
                            report its expected diagnostic (so a clean
                            result is itself a failure)
     vet fixture -list      list fixture names
     vet wire               round-trip + totality check of the wire
                            codecs (codec errors come out in the
                            one-line vet:wire:... vocabulary)
     vet hotpath [DIR]      flag copy idioms (Buffer.to_bytes,
                            Bytes.sub_string) on the zero-copy wire
                            hot path (default lib/wire)
     vet all [DIR]          wiring + inherit + effects + corpus + wire
                            + hotpath

   The global [-json] (or [--json]) flag switches diagnostic output to
   one JSON object per finding (JSONL on stdout, no summary lines), so
   CI can annotate findings without scraping the human format.

   Exit codes: 0 clean, 1 diagnostics reported (or a fixture failing to
   produce its expected finding), 2 usage error. *)

module A = Vsgc_analysis

let die fmt = Fmt.kstr (fun s -> Fmt.epr "vet: %s@." s; exit 2) fmt

let json = ref false

let print_diags diags =
  List.iter
    (fun d ->
      if !json then print_endline (A.Diag.to_json d)
      else Fmt.pr "%a@." A.Diag.pp d)
    diags

let report label diags =
  print_diags diags;
  let n = List.length diags in
  if not !json then
    Fmt.pr "vet: %s: %s@." label
      (if n = 0 then "clean" else Fmt.str "%d diagnostic%s" n (if n = 1 then "" else "s"));
  n

let wiring () =
  let count =
    List.fold_left
      (fun acc (label, run) -> acc + report label (run ()))
      0
      [
        ("wiring wv", fun () -> A.Lint.layer `Wv);
        ("wiring vs", fun () -> A.Lint.layer `Vs);
        ("wiring full", fun () -> A.Lint.layer `Full);
        ("wiring server-stack", fun () -> A.Lint.server_stack ());
      ]
  in
  count

let inherit_ () =
  List.fold_left
    (fun acc (r : A.Inherit_check.report) ->
      if not !json then Fmt.pr "vet: %a@." A.Inherit_check.pp_report r;
      acc + report ("inherit " ^ r.A.Inherit_check.pair) r.A.Inherit_check.diags)
    0
    (A.Inherit_check.all ())

let effects () =
  List.fold_left
    (fun acc (label, diags) -> acc + report label diags)
    0
    (A.Effect_check.all ())

let corpus dir = report ("corpus " ^ dir) (A.Sched_check.check_dir dir)

let wire () = report "wire codecs" (A.Wire_check.check ())

let hotpath ?dir () =
  let dir = Option.value dir ~default:"lib/wire" in
  report ("hotpath " ^ dir) (A.Hotpath_check.check ~dir ())

let fixture name =
  match A.Fixtures.find name with
  | None ->
      die "unknown fixture %S (have: %s)" name (String.concat ", " A.Fixtures.names)
  | Some f ->
      let diags = f.A.Fixtures.run () in
      print_diags diags;
      let hit =
        List.exists (fun d -> d.A.Diag.check = f.A.Fixtures.expect) diags
      in
      if hit then begin
        if not !json then
          Fmt.pr "vet: fixture %s: reported %s as expected@." name
            f.A.Fixtures.expect;
        1 (* expected diagnostic found: exit non-zero, as CI asserts *)
      end
      else begin
        (* exit ZERO: CI inverts the fixture assertion, so a linter
           gone blind makes the build fail loudly *)
        Fmt.epr "vet: fixture %s: expected a %s diagnostic, got none — the linter is blind@."
          name f.A.Fixtures.expect;
        0
      end

let () =
  let argv =
    Array.of_list
      (List.filter
         (fun a ->
           if a = "-json" || a = "--json" then begin
             json := true;
             false
           end
           else true)
         (Array.to_list Sys.argv))
  in
  let arg i = if Array.length argv > i then Some argv.(i) else None in
  let count =
    match arg 1 with
    | Some "wiring" -> wiring ()
    | Some "inherit" -> inherit_ ()
    | Some "effects" -> effects ()
    | Some "corpus" -> corpus (Option.value (arg 2) ~default:"test/corpus")
    | Some "fixture" -> (
        match arg 2 with
        | Some "-list" ->
            List.iter print_endline A.Fixtures.names;
            0
        | Some name -> fixture name
        | None -> die "fixture: missing name (or -list)")
    | Some "wire" -> wire ()
    | Some "hotpath" -> hotpath ?dir:(arg 2) ()
    | Some "all" ->
        wiring () + inherit_ () + effects ()
        + corpus (Option.value (arg 2) ~default:"test/corpus")
        + wire () + hotpath ()
    | Some cmd ->
        die "unknown subcommand %S (wiring|inherit|effects|corpus|fixture|wire|hotpath|all)" cmd
    | None ->
        die "usage: vet [-json] (wiring|inherit|effects|corpus|fixture NAME|wire|hotpath|all)"
  in
  exit (if count = 0 then 0 else 1)
