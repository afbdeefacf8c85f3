(* The effect audit (vet pass "effects") — the static half of the
   footprint honesty certificate (DESIGN.md §14; the dynamic half is
   Vsgc_ioa.Sanitizer).

   Checks, per component over the representative universe:

   - coarse-fallback: the component is still on the Footprint.coarse
     default (every action mapped to one Global cell). Sound but
     useless — it serializes the component against everything, so the
     explorer never prunes around it. Shipped
     components must declare real footprints or be whitelisted here
     with a reason.

   - writeless-output / readless-output: the emit signature
     cross-checked against the footprint. An emitted action with no
     declared write could never disable itself (its own firing would
     not change state it owns), and one with no declared read has
     enabledness depending on nothing — both are contradictions for a
     locally-controlled action, so they expose a footprint that was
     never written for the action at all.

   - write-gap (totality): every shadow-state slice a component ever
     exposes (its Component.observe domain, sampled along a driven
     run) must be covered by the declared writes of some action the
     component participates in. A slice nothing ever claims to write
     is mutable state the independence relation cannot see — the
     classic lying-footprint shape, caught statically here and
     dynamically by the sanitizer's per-step diff.

   - inherit-footprint: across the WV <- VS <- Full inheritance tower
     (paper §4-§6), a child layer may extend the parent's footprint
     but must still cover it on every action — an inherited action
     whose declared effect shrank is a refactoring accident.

   Deliberately NOT checked: a declared footprint for an action the
   component never participates in. Over-declaration only adds
   interference — sound, and sometimes deliberate (the membership
   servers claim Mb_queue for any client because attachment is
   dynamic). The audit hunts lies, not conservatism. *)

open Vsgc_types
module Component = Vsgc_ioa.Component
module Executor = Vsgc_ioa.Executor
module Footprint = Vsgc_ioa.Footprint

let diag check ~subject fmt = Diag.vf ~pass:"effects" ~check ~subject fmt

(* Components allowed to stay on the coarse Global fallback. Empty
   today: every shipped component declares a real footprint, and this
   list holds the line. Add a name ONLY with a comment saying why
   coarse is acceptable for that component. *)
let coarse_whitelist : string list = []

let is_coarse ~universe c =
  let name = Component.name c in
  universe <> []
  && List.for_all
       (fun a ->
         match Component.footprint c a with
         | {
             Footprint.reads = [ Footprint.Global n ];
             writes = [ Footprint.Global n' ];
           } ->
             String.equal n name && String.equal n' name
         | _ -> false)
       universe

(* -- Static signature checks --------------------------------------------- *)

let static ~universe (comps : Component.packed list) : Diag.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun c ->
      let name = Component.name c in
      if is_coarse ~universe c && not (List.mem name coarse_whitelist) then
        add
          (diag "coarse-fallback" ~subject:name
             "still on the Footprint.coarse default: everything interferes, \
              nothing is ever reordered or pruned")
      else
        List.iter
          (fun a ->
            if Component.emits c a then begin
              let fp = Component.footprint c a in
              let subject = Action.to_string a in
              if fp.Footprint.writes = [] then
                add
                  (diag "writeless-output" ~subject
                     "%s emits this action but declares no write — its own \
                      firing could never disable it"
                     name);
              if fp.Footprint.reads = [] then
                add
                  (diag "readless-output" ~subject
                     "%s emits this action but declares no read — its \
                      enabledness would depend on nothing"
                     name)
            end)
          universe)
    comps;
  List.rev !diags

(* -- Footprint totality (write-gap) over driven domains ------------------- *)

(* The observed shadow-slice domain of each component, accumulated by
   sampling Component.observe along a run (keyed by component name;
   names are unique within a composition). *)
type domains = (string, Footprint.loc list) Hashtbl.t

let sample_domains (acc : domains) (comps : Component.packed array) =
  Array.iter
    (fun c ->
      let name = Component.name c in
      let locs =
        match Hashtbl.find_opt acc name with Some l -> l | None -> []
      in
      let locs =
        List.fold_left
          (fun ls (l, _) -> if List.mem l ls then ls else l :: ls)
          locs (Component.observe c)
      in
      Hashtbl.replace acc name locs)
    comps

let write_gap ~universe ~(domains : domains) (comps : Component.packed list) :
    Diag.t list =
  let diags = ref [] in
  List.iter
    (fun c ->
      let name = Component.name c in
      let dom =
        match Hashtbl.find_opt domains name with Some l -> l | None -> []
      in
      List.iter
        (fun l ->
          let covered =
            List.exists
              (fun a ->
                (Component.accepts c a || Component.emits c a)
                && List.exists
                     (Footprint.loc_interferes l)
                     (Component.footprint c a).Footprint.writes)
              universe
          in
          if not covered then
            diags :=
              diag "write-gap" ~subject:name
                "observed state at %a is covered by no participating \
                 action's declared writes"
                Footprint.pp_loc l
              :: !diags)
        dom)
    comps;
  List.rev !diags

(* Run the whole audit over an executor-driven composition: sample the
   observe domains at start and after every step, then apply the
   signature and totality checks. Used by the fixtures and tests; the
   shipped compositions go through [layer]/[server_stack] below, whose
   scripted scenarios reach deeper states. *)
let audit ?(steps = 50) ~universe (comps : Component.packed list) :
    Diag.t list =
  let exec = Executor.create ~seed:1 ~sanitize:None comps in
  let arr = Executor.components exec in
  let domains : domains = Hashtbl.create 16 in
  sample_domains domains arr;
  Executor.add_step_hook exec (fun _ -> sample_domains domains arr);
  ignore (Executor.run ~max_steps:steps exec);
  static ~universe comps @ write_gap ~universe ~domains comps

(* -- Drivers for the shipped compositions -------------------------------- *)

module System = Vsgc_harness.System
module Server_system = Vsgc_harness.Server_system
module Sysconf = Vsgc_explore.Sysconf
module Replica = Vsgc_replication.Replica

let drain sys = ignore (System.run ~max_steps:5_000 sys)

let with_domains sys f =
  let exec = System.exec sys in
  let arr = Executor.components exec in
  let domains : domains = Hashtbl.create 16 in
  sample_domains domains arr;
  Executor.add_step_hook exec (fun _ -> sample_domains domains arr);
  f ();
  domains

(* Audit one Sysconf layer along the same scripted scenario the wiring
   linter drives (reconfiguration with traffic, a partial change, a
   crash/recovery) — the shapes that populate every kind of shadow
   slice the components expose. *)
let layer ?(n = 3) (l : Vsgc_core.Endpoint.layer) : Diag.t list =
  let conf = Sysconf.make ~n ~layer:l () in
  let sys =
    System.create ~seed:conf.Sysconf.seed ~n:conf.Sysconf.n
      ~layer:conf.Sysconf.layer ~monitors:`None ()
  in
  let comps = Array.to_list (Executor.components (System.exec sys)) in
  let universe = Universe.actions ~n () in
  let all = Proc.Set.of_range 0 (n - 1) in
  let domains =
    with_domains sys (fun () ->
        ignore (System.reconfigure sys ~set:all);
        System.send sys 0 "vet-a";
        System.send sys 1 "vet-b";
        ignore (System.start_change sys ~set:(Proc.Set.remove (n - 1) all));
        ignore
          (System.deliver_view ~origin:1 sys ~set:(Proc.Set.remove (n - 1) all));
        System.crash sys (n - 1);
        System.recover sys (n - 1);
        ignore (System.reconfigure ~origin:2 sys ~set:all);
        drain sys)
  in
  static ~universe comps @ write_gap ~universe ~domains comps

(* Audit the client-server membership stack (Figure 1): servers and
   their transport replace the oracle. *)
let server_stack ?(n_clients = 4) ?(n_servers = 2) () : Diag.t list =
  let t = Server_system.create ~n_clients ~n_servers ~monitors:`None () in
  let sys = Server_system.sys t in
  let comps = Array.to_list (Executor.components (System.exec sys)) in
  let universe = Universe.actions ~n:n_clients ~n_servers () in
  let domains =
    with_domains sys (fun () ->
        Server_system.bootstrap t;
        Server_system.fd_change t
          ~perceived:(Server.Set.of_range 0 (n_servers - 1));
        Server_system.leave t (n_clients - 1);
        Server_system.join t (n_clients - 1);
        drain sys)
  in
  static ~universe comps @ write_gap ~universe ~domains comps

(* Audit the KV service stack (DESIGN.md §15): the composition a
   [Vsgc_kv.Kv_node] hosts — a Full end-point plus a strict replica of
   the given instance per process — along a scripted scenario that
   exercises ordered writes, a partial view change and a
   crash/recovery. The KV engine itself (store, service, load) runs
   outside the executor at the node edge, so the component stack is
   exactly this pair. The universe adds the symmetric arm's
   [Sym_deliver] reports, which only that arm's replica emits: the
   shared total-order shell declares them only over a reporting core. *)
let kv_stack (type r) ?(n = 3)
    (module R : Replica.S with type t = r)
    (component : Proc.t -> Component.packed * r ref) : Diag.t list =
  let refs = Hashtbl.create 8 in
  let sys =
    System.create ~seed:23 ~n ~monitors:`None
      ~client_builder:(fun p ->
        let c, r = component p in
        Hashtbl.replace refs p r;
        c)
      ()
  in
  let rep p : r ref = Hashtbl.find refs p in
  let comps = Array.to_list (Executor.components (System.exec sys)) in
  let universe =
    Universe.actions ~n ()
    @ List.concat_map
        (fun p -> List.init n (fun q -> Action.Sym_deliver (p, q, 1, "vet")))
        (List.init n Fun.id)
  in
  let all = Proc.Set.of_range 0 (n - 1) in
  let domains =
    with_domains sys (fun () ->
        ignore (System.reconfigure sys ~set:all);
        drain sys;
        R.set (rep 0) ~key:"vet" ~value:"a";
        R.write (rep 1) ~client:0 ~seq:0 ~key:"vet-w" ~value:"b";
        drain sys;
        ignore (System.start_change sys ~set:(Proc.Set.remove (n - 1) all));
        ignore
          (System.deliver_view ~origin:1 sys ~set:(Proc.Set.remove (n - 1) all));
        System.crash sys (n - 1);
        System.recover sys (n - 1);
        ignore (System.reconfigure ~origin:2 sys ~set:all);
        drain sys)
  in
  static ~universe comps @ write_gap ~universe ~domains comps

(* -- Inheritance cross-check ---------------------------------------------- *)

(* Across the WV <- VS <- Full tower, a child layer may extend the
   parent's declared footprint but must still cover it: every parent
   read interferes some child read, every parent write some child
   write. *)
let inherit_footprints ?(n = 3) () : Diag.t list =
  let universe = Universe.actions ~n () in
  let covers locs locs' =
    List.for_all (fun l -> List.exists (Footprint.loc_interferes l) locs') locs
  in
  List.concat_map
    (fun p ->
      let fp_at layer =
        let c, _ = Vsgc_core.Endpoint.component ~layer p in
        Component.footprint c
      in
      let pairs =
        [
          ("vs<-wv", fp_at `Wv, fp_at `Vs);
          ("full<-vs", fp_at `Vs, fp_at `Full);
        ]
      in
      List.concat_map
        (fun (pair, parent, child) ->
          List.filter_map
            (fun a ->
              let fpp = parent a and fpc = child a in
              if
                covers fpp.Footprint.reads fpc.Footprint.reads
                && covers fpp.Footprint.writes fpc.Footprint.writes
              then None
              else
                Some
                  (diag "inherit-footprint" ~subject:(Action.to_string a)
                     "the %s layer pair narrows the parent's declared \
                      footprint at %a"
                     pair Proc.pp p))
            universe)
        pairs)
    (List.init n Fun.id)

(* Every shipped composition, as the vet driver runs them. *)
let audits : (string * (unit -> Diag.t list)) list =
  [
    ("wv", fun () -> layer `Wv);
    ("vs", fun () -> layer `Vs);
    ("full", fun () -> layer `Full);
    ("server-stack", fun () -> server_stack ());
    ("kv-stack", fun () -> kv_stack (module Replica) (fun p -> Replica.component p));
    ( "kv-sym-stack",
      fun () -> kv_stack (module Replica.Sym) (fun p -> Replica.Sym.component p) );
    ("inherit", fun () -> inherit_footprints ());
  ]

let select = function
  | None -> Ok audits
  | Some name -> (
      match List.assoc_opt name audits with
      | Some run -> Ok [ (name, run) ]
      | None ->
          Error
            (Fmt.str "unknown effects audit %S (have: %s)" name
               (String.concat ", " (List.map fst audits))))
