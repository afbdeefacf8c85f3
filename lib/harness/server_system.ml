(* System assembly with the client-server membership stack of Figure 1:
   GCS end-points and clients as in System, but views come from
   dedicated membership servers (vsgc_mbrshp.Servers) exchanging
   proposals over their own reliable transport, instead of the
   scriptable oracle. *)

open Vsgc_types
module Servers = Vsgc_mbrshp.Servers
module Srv_net = Vsgc_mbrshp.Srv_net
module Executor = Vsgc_ioa.Executor

type t = {
  sys : System.t;
  servers : Servers.t ref Server.Map.t;
  srv_net : Srv_net.state ref;
  server_set : Server.Set.t;
  n_servers : int;
}

(* Client p is attached to server (p mod n_servers). *)
let server_of t p = Proc.to_int p mod t.n_servers

let create ?seed ?weights ?strategy ?layer ?monitors ?endpoint_builder ~n_clients ~n_servers () =
  if n_servers <= 0 then invalid_arg "Server_system.create: need at least one server";
  let server_set = Server.Set.of_range 0 (n_servers - 1) in
  let clients_of s =
    let rec go acc p =
      if p >= n_clients then acc
      else go (if p mod n_servers = s then Proc.Set.add p acc else acc) (p + 1)
    in
    go Proc.Set.empty 0
  in
  let srv_net_c, srv_net = Srv_net.component () in
  let servers, server_cs =
    Server.Set.fold
      (fun s (m, cs) ->
        let c, r = Servers.component ~clients:(clients_of s) ~servers:server_set s in
        (Server.Map.add s r m, c :: cs))
      server_set (Server.Map.empty, [])
  in
  let sys =
    System.create ?seed ?weights ?strategy ?layer ?monitors
      ?endpoint_builder ~with_oracle:false
      ~extra_components:(srv_net_c :: server_cs)
      ~extra_budgets:[ Srv_net.round_budget srv_net ]
      ~n:n_clients ()
  in
  { sys; servers; srv_net; server_set; n_servers }

let sys t = t.sys
let server t s = Server.Map.find s t.servers
let srv_net t = t.srv_net

(* Kick every server's failure detector with the full server set —
   triggers the initial view agreement. *)
let bootstrap t =
  Server.Set.iter
    (fun s -> Executor.inject (System.exec t.sys) (Action.Fd_change (s, t.server_set)))
    t.server_set

(* Inject a consistent failure-detector event at every server in
   [perceived]: they now believe exactly [perceived] are alive. *)
let fd_change t ~perceived =
  Server.Set.iter
    (fun s -> Executor.inject (System.exec t.sys) (Action.Fd_change (s, perceived)))
    perceived

let join t p =
  let s = server_of t p in
  Executor.inject (System.exec t.sys) (Action.Client_join (p, s))

let leave t p =
  let s = server_of t p in
  Executor.inject (System.exec t.sys) (Action.Client_leave (p, s))
