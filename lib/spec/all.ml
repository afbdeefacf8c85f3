(* Convenience: every safety monitor at once — what the integration and
   property-based tests attach to monitored runs. *)

let safety () =
  [
    Mbrshp_spec.monitor ();
    Co_rfifo_spec.monitor ();
    Wv_rfifo_spec.monitor ();
    Vs_rfifo_spec.monitor ();
    Trans_set_spec.monitor ();
    Self_spec.monitor ();
    Client_spec.monitor ();
  ]

(* Monitors meaningful for the pure within-view layer (`Wv endpoints):
   no virtual synchrony, transitional sets, or self-delivery claims. *)
let wv_only () =
  [ Mbrshp_spec.monitor (); Co_rfifo_spec.monitor (); Wv_rfifo_spec.monitor () ]

(* The service-level monitors for networked runs: they consume only
   client-side actions (App_send/App_deliver/App_view/Crash), which
   occur exactly once each — at the client node's executor — so a
   per-node deployment can share one instance of each across all
   client executors. The environment specs (membership, CO_RFIFO) are
   excluded: over the wire those automata are replaced by real
   packets, and their input-enabledness assumptions do not transfer. *)
let net () =
  [
    Wv_rfifo_spec.monitor ();
    Vs_rfifo_spec.monitor ();
    Trans_set_spec.monitor ();
    Self_spec.monitor ();
  ]

(* The networked bundle plus the self-stabilization rejoin contract:
   what the fault layer attaches, so a client that crashes (or is
   crashed by a corruption guard) and never completes the §8 rejoin is
   classified as a violation rather than a quietly shrunken system. *)
let net_selfstab () = net () @ [ Self_spec.rejoin () ]

(* The battery for a deployment of either total-order arm. The
   symmetric arm's GCS properties still hold underneath (same
   endpoints, same wire), plus the Skeen delivery-condition monitor
   over the arm's Sym_deliver reports. *)
let net_arm = function
  | `Gcs -> net_selfstab ()
  | `Sym -> net_selfstab () @ [ Skeen_spec.monitor () ]
