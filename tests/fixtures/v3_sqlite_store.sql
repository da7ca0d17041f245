BEGIN TRANSACTION;
CREATE TABLE assignment_seconds (
    ord     INTEGER PRIMARY KEY AUTOINCREMENT,
    seconds REAL NOT NULL
);
INSERT INTO "assignment_seconds" VALUES(1,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(2,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(3,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(4,97.0);
INSERT INTO "assignment_seconds" VALUES(5,97.0);
INSERT INTO "assignment_seconds" VALUES(6,97.0);
INSERT INTO "assignment_seconds" VALUES(7,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(8,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(9,6.98000000000000113669e+01);
CREATE TABLE events (
    seq     INTEGER PRIMARY KEY,
    type    TEXT NOT NULL,
    payload TEXT NOT NULL,
    crc     INTEGER NOT NULL
);
INSERT INTO "events" VALUES(1,'session','{"config":{"aggregation":"majority","assignments_per_hit":3,"checkpoint_dir":"out/store","cluster_size":10,"crowd":{"backpressure_policy":"block","fault_plan":{"burst_backlog_ticks":0,"burst_every":0,"churn_probability":0.0,"delay_ticks_max":3,"delay_ticks_min":1,"drop_probability":0.0,"duplicate_delay_ticks":2,"duplicate_probability":0.0,"max_faulty_attempts":8,"reorder_probability":0.0,"reorder_window_ticks":3,"seed":3},"max_inflight_hits":64,"max_retries":3,"vote_timeout":8},"hit_type":"cluster","join_backend":"auto","join_workers":0,"likelihood_threshold":0.15,"pairs_per_hit":16,"seed":0,"similarity_attributes":null,"stream_batch_size":256,"streaming_aggregation_scope":"component","use_qualification_test":false,"vote_mode":"per-pair"},"cross_sources":null,"version":3}',1183245222);
INSERT INTO "events" VALUES(2,'truth','{"pairs":[["r1","r24"],["r11","r32"],["r13","r14"],["r16","r39"],["r20","r4"],["r3","r8"],["r33","r42"],["r36","r7"]]}',738951277);
INSERT INTO "events" VALUES(3,'batch','{"records":[{"attributes":{"address":"9293 ventura st","city":"denver","name":"old lotus bistro","type":"vegetarian"},"record_id":"r1","source":null},{"attributes":{"address":"5341 north market boulevard","city":"los angeles","name":"harbor spoon diner","type":"indian"},"record_id":"r2","source":null},{"attributes":{"address":"8154 s main boulevard","city":"houston","name":"little bistro","type":"japanese"},"record_id":"r3","source":null},{"attributes":{"address":"2308 north columbus street","city":"san francisco","name":"golden fork grill","type":"american new"},"record_id":"r4","source":null},{"attributes":{"address":"7794 east oak road","city":"denver","name":"new willow bistro","type":"bbq"},"record_id":"r5","source":null},{"attributes":{"address":"1868 east canal avenue","city":"boston","name":"green terrace noodle bar","type":"thai"},"record_id":"r6","source":null},{"attributes":{"address":"2334 south wilshire dr","city":"boston","name":"oedar lantern kitchen","type":"pizza"},"record_id":"r7","source":null},{"attributes":{"address":"8154 south main boulevard","city":"houston","name":"little fork bistro","type":"bbq"},"record_id":"r8","source":null},{"attributes":{"address":"3012 west lexington road","city":"miami","name":"new anchor noodle bar","type":"mediterranean"},"record_id":"r9","source":null},{"attributes":{"address":"4491 south park drive","city":"chicago","name":"blue lotus bar","type":"mexican"},"record_id":"r10","source":null},{"attributes":{"address":"5064 mission st","city":"seattle","name":"ocean bzsil steakhouse","type":"french"},"record_id":"r11","source":null},{"attributes":{"address":"8033 west wilshire drive","city":"new york","name":"corner rose noodle bar","type":"pizza"},"record_id":"r12","source":null},{"attributes":{"address":"8620 columbus st","city":"denver","name":"silver","type":"chinese"},"record_id":"r13","source":null},{"attributes":{"address":"8620 north spring avenue","city":"denver","name":"silver stove trattoria","type":"american new"},"record_id":"r14","source":null},{"attributes":{"address":"1256 east main road","city":"houston","name":"uptown spoon eatery","type":"thai"},"record_id":"r15","source":null}]}',1242044038);
INSERT INTO "events" VALUES(4,'commit','{"delta":{"batch_index":1,"clean_components":0,"crowdsourced_pairs":0,"dirty_components":10,"dirty_pairs":5,"invalidated_pairs":0,"new_candidate_pairs":5,"new_records":15,"preserved_posterior_pairs":0,"regenerated_hits":1,"retracted_records":0,"reused_vote_pairs":0},"digest":"3bddc25379706ed7e4a00b1538207c6256add93c7d4ad1b444dcf0e6170f4085","votes":[]}',670259758);
INSERT INTO "events" VALUES(5,'batch','{"records":[{"attributes":{"address":"6215 wes melrose ave","city":"new york","name":"lucky kitchen","type":"japanese"},"record_id":"r16","source":null},{"attributes":{"address":"1586 union drive","city":"atlanta","name":"village orchid kitchen","type":"thai"},"record_id":"r17","source":null},{"attributes":{"address":"8873 west melrose avenue","city":"atlanta","name":"green anchor restaurant","type":"mediterranean"},"record_id":"r18","source":null},{"attributes":{"address":"7899 east oak boulevard","city":"boston","name":"happy terrace noodle bar","type":"chinese"},"record_id":"r19","source":null},{"attributes":{"address":"2j08 n columbus street","city":"san francisco","name":"firk grill","type":"thai"},"record_id":"r20","source":null},{"attributes":{"address":"5596 north sunset avenue","city":"boston","name":"little dragon steakhouse","type":"mexican"},"record_id":"r21","source":null},{"attributes":{"address":"547 north canal road","city":"chicago","name":"mountain orchid kitchen","type":"french"},"record_id":"r22","source":null},{"attributes":{"address":"4923 west hill drive","city":"atlanta","name":"sunny rose steakhouse","type":"mexican"},"record_id":"r23","source":null},{"attributes":{"address":"9293 ventura street","city":"denver","name":"old lotus bistro","type":"vegetarian"},"record_id":"r24","source":null},{"attributes":{"address":"3970 south hill street","city":"seattle","name":"silver table cafe","type":"steakhouse"},"record_id":"r25","source":null},{"attributes":{"address":"6034 west maple avenue","city":"los angeles","name":"new willow house","type":"french"},"record_id":"r26","source":null},{"attributes":{"address":"6140 south maple place","city":"seattle","name":"new dragon steakhouse","type":"chinese"},"record_id":"r27","source":null},{"attributes":{"address":"6577 south hill drive","city":"chicago","name":"corner kettle trattoria","type":"mediterranean"},"record_id":"r28","source":null},{"attributes":{"address":"5184 north sunset place","city":"los angeles","name":"happy hearth restaurant","type":"bbq"},"record_id":"r29","source":null},{"attributes":{"address":"2416 east oak place","city":"new york","name":"uptown lantern trattoria","type":"italian"},"record_id":"r30","source":null}]}',1604326157);
INSERT INTO "events" VALUES(6,'commit','{"delta":{"batch_index":2,"clean_components":4,"crowdsourced_pairs":10,"dirty_components":12,"dirty_pairs":13,"invalidated_pairs":0,"new_candidate_pairs":9,"new_records":15,"preserved_posterior_pairs":0,"regenerated_hits":2,"retracted_records":0,"reused_vote_pairs":0},"digest":"4a6410ab86d8b189e7615f1fd08e7139041c29ff25f334c349ee51e013a9d961","votes":[["r1","r13",[["worker-39",["r1","r13"],false],["worker-60",["r1","r13"],false],["worker-49",["r1","r13"],true]]],["r1","r24",[["worker-43",["r1","r24"],true],["worker-42",["r1","r24"],true],["worker-1",["r1","r24"],true]]],["r10","r28",[["worker-31",["r10","r28"],false],["worker-3",["r10","r28"],false],["worker-36",["r10","r28"],false]]],["r12","r23",[["worker-54",["r12","r23"],false],["worker-27",["r12","r23"],false],["worker-9",["r12","r23"],false]]],["r12","r9",[["worker-41",["r12","r9"],false],["worker-44",["r12","r9"],false],["worker-12",["r12","r9"],false]]],["r13","r14",[["worker-45",["r13","r14"],true],["worker-24",["r13","r14"],true],["worker-5",["r13","r14"],true]]],["r14","r4",[["worker-8",["r14","r4"],false],["worker-60",["r14","r4"],false],["worker-36",["r14","r4"],false]]],["r18","r9",[["worker-8",["r18","r9"],false],["worker-57",["r18","r9"],true],["worker-14",["r18","r9"],false]]],["r19","r6",[["worker-58",["r19","r6"],true],["worker-15",["r19","r6"],false],["worker-54",["r19","r6"],false]]],["r3","r8",[["worker-2",["r3","r8"],true],["worker-42",["r3","r8"],true],["worker-26",["r3","r8"],false]]]]}',1932103929);
INSERT INTO "events" VALUES(7,'retract','{"record_id":"r4"}',1308517374);
INSERT INTO "events" VALUES(8,'commit','{"delta":{"batch_index":3,"clean_components":15,"crowdsourced_pairs":0,"dirty_components":2,"dirty_pairs":3,"invalidated_pairs":2,"new_candidate_pairs":0,"new_records":0,"preserved_posterior_pairs":6,"regenerated_hits":0,"retracted_records":1,"reused_vote_pairs":0},"digest":"a4a5e82bf4893ea2ce893924666410651c5bd6354499bf56213127967fc6bdf2","votes":[]}',2973789094);
INSERT INTO "events" VALUES(9,'update','{"record":{"attributes":{"address":"1868 east canal avenue","city":"boston","name":"revised beyond recognition","type":"thai"},"record_id":"r6","source":null}}',1495207987);
INSERT INTO "events" VALUES(10,'commit','{"delta":{"batch_index":5,"clean_components":17,"crowdsourced_pairs":3,"dirty_components":1,"dirty_pairs":0,"invalidated_pairs":1,"new_candidate_pairs":0,"new_records":1,"preserved_posterior_pairs":8,"regenerated_hits":0,"retracted_records":1,"reused_vote_pairs":0},"digest":"ebfba72d43f9df85b5f8e620b2ed2dec86c385c3e3762d3e36530ab8c1726ec1","votes":[["r2","r29",[["worker-51",["r2","r29"],false],["worker-35",["r2","r29"],false],["worker-19",["r2","r29"],false]]],["r25","r27",[["worker-7",["r25","r27"],false],["worker-18",["r25","r27"],false],["worker-37",["r25","r27"],false]]],["r30","r5",[["worker-17",["r30","r5"],false],["worker-58",["r30","r5"],false],["worker-36",["r30","r5"],false]]]]}',692830634);
INSERT INTO "events" VALUES(11,'batch','{"records":[{"attributes":{"address":"3555 east spring drive","city":"miami","name":"lucky grove kitchen","type":"american"},"record_id":"r31","source":null},{"attributes":{"address":"5064 mission street","city":"seattle","name":"ocean basil steakhouse","type":"french"},"record_id":"r32","source":null},{"attributes":{"address":"3341 e market road","city":"new york","name":"blue truffle house","type":"american new"},"record_id":"r33","source":null},{"attributes":{"address":"8943 south columbus boulevard","city":"los angeles","name":"cedar maple bistro","type":"italian"},"record_id":"r34","source":null},{"attributes":{"address":"3403 north market avenue","city":"seattle","name":"river pepper trattoria","type":"vegetarian"},"record_id":"r35","source":null},{"attributes":{"address":"2334 south wilshire drive","city":"boston","name":"cedar lantern kitchen","type":"pizza"},"record_id":"r36","source":null},{"attributes":{"address":"338 east valencia drive","city":"houston","name":"little panda brasserie","type":"chinese"},"record_id":"r37","source":null},{"attributes":{"address":"1011 south mission avenue","city":"houston","name":"happy rose grill","type":"bbq"},"record_id":"r38","source":null},{"attributes":{"address":"6215 west melrose avenue","city":"new york","name":"lucky falcon kitchen","type":"pizza"},"record_id":"r39","source":null},{"attributes":{"address":"3578 north sunset road","city":"boston","name":"palm kettle noodle bar","type":"french"},"record_id":"r40","source":null}]}',4000149810);
CREATE TABLE ledger (
    id_a       TEXT NOT NULL,
    id_b       TEXT NOT NULL,
    likelihood REAL,
    votes      TEXT,
    pending    INTEGER NOT NULL,
    posterior  REAL,
    covered    INTEGER NOT NULL,
    PRIMARY KEY (id_a, id_b)
) WITHOUT ROWID;
INSERT INTO "ledger" VALUES('r1','r13',1.66666666666666657414e-01,'[["worker-39", false], ["worker-60", false], ["worker-49", true]]',0,3.33333333333333314829e-01,1);
INSERT INTO "ledger" VALUES('r1','r24',7.77777777777777790113e-01,'[["worker-43", true], ["worker-42", true], ["worker-1", true]]',0,1.0,1);
INSERT INTO "ledger" VALUES('r10','r28',0.2,'[["worker-31", false], ["worker-3", false], ["worker-36", false]]',0,0.0,1);
INSERT INTO "ledger" VALUES('r12','r23',1.76470588235294129075e-01,'[["worker-54", false], ["worker-27", false], ["worker-9", false]]',0,0.0,1);
INSERT INTO "ledger" VALUES('r12','r9',2.35294117647058820264e-01,'[["worker-41", false], ["worker-44", false], ["worker-12", false]]',0,0.0,1);
INSERT INTO "ledger" VALUES('r13','r14',2.30769230769230782041e-01,'[["worker-45", true], ["worker-24", true], ["worker-5", true]]',0,1.0,1);
INSERT INTO "ledger" VALUES('r18','r9',0.1875,'[["worker-8", false], ["worker-57", true], ["worker-14", false]]',0,3.33333333333333314829e-01,1);
INSERT INTO "ledger" VALUES('r2','r29',1.76470588235294129075e-01,'[["worker-51", false], ["worker-35", false], ["worker-19", false]]',0,0.0,1);
INSERT INTO "ledger" VALUES('r25','r27',0.2,'[["worker-7", false], ["worker-18", false], ["worker-37", false]]',0,0.0,1);
INSERT INTO "ledger" VALUES('r3','r8',5.45454545454545414173e-01,'[["worker-2", true], ["worker-42", true], ["worker-26", false]]',0,6.66666666666666629659e-01,1);
INSERT INTO "ledger" VALUES('r30','r5',0.1875,'[["worker-17", false], ["worker-58", false], ["worker-36", false]]',0,0.0,1);
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
INSERT INTO "meta" VALUES('version','3');
INSERT INTO "meta" VALUES('config','{"likelihood_threshold": 0.15, "hit_type": "cluster", "cluster_size": 10, "pairs_per_hit": 16, "assignments_per_hit": 3, "use_qualification_test": false, "aggregation": "majority", "similarity_attributes": null, "join_backend": "auto", "join_workers": 0, "vote_mode": "per-pair", "stream_batch_size": 256, "streaming_aggregation_scope": "component", "checkpoint_dir": "out/store", "crowd": {"vote_timeout": 8, "max_inflight_hits": 64, "backpressure_policy": "block", "max_retries": 3, "fault_plan": {"seed": 3, "delay_ticks_min": 1, "delay_ticks_max": 3, "drop_probability": 0.0, "duplicate_probability": 0.0, "duplicate_delay_ticks": 2, "reorder_probability": 0.0, "reorder_window_ticks": 3, "churn_probability": 0.0, "burst_every": 0, "burst_backlog_ticks": 0, "max_faulty_attempts": 8}}, "seed": 0}');
INSERT INTO "meta" VALUES('cross_sources','null');
INSERT INTO "meta" VALUES('truth','[["r1", "r24"], ["r11", "r32"], ["r13", "r14"], ["r16", "r39"], ["r20", "r4"], ["r3", "r8"], ["r33", "r42"], ["r36", "r7"]]');
INSERT INTO "meta" VALUES('session','{"hit_count": 3, "cost": 0.22500000000000003, "batch_index": 5, "pairs_per_hit_seen": null, "generator_name": "two-tiered", "last_delta": {"batch_index": 5, "new_records": 1, "new_candidate_pairs": 0, "dirty_components": 1, "clean_components": 17, "dirty_pairs": 0, "regenerated_hits": 0, "crowdsourced_pairs": 3, "reused_vote_pairs": 0, "preserved_posterior_pairs": 8, "retracted_records": 1, "invalidated_pairs": 1}}');
INSERT INTO "meta" VALUES('async','{"platform": {"clock": 3, "publish_count": 2, "retries": 0, "timeouts": 0, "duplicates_dropped": 0, "reissued": 0, "extra_cost": 0.0, "seen": ["p0:two-tiered-hit-1/s0/a0", "p0:two-tiered-hit-1/s1/a0", "p0:two-tiered-hit-1/s2/a0", "p1:two-tiered-hit-1/s0/a0", "p1:two-tiered-hit-1/s1/a0", "p1:two-tiered-hit-1/s2/a0", "p1:two-tiered-hit-2/s0/a0", "p1:two-tiered-hit-2/s1/a0", "p1:two-tiered-hit-2/s2/a0"], "hits": [], "pending": [], "ready": []}, "slot_votes": [], "starved": []}');
INSERT INTO "meta" VALUES('events_applied','10');
CREATE TABLE records (
    record_id  TEXT PRIMARY KEY,
    attributes TEXT NOT NULL,
    source     TEXT,
    arrival    INTEGER NOT NULL
);
INSERT INTO "records" VALUES('r1','{"name": "old lotus bistro", "address": "9293 ventura st", "city": "denver", "type": "vegetarian"}',NULL,0);
INSERT INTO "records" VALUES('r2','{"name": "harbor spoon diner", "address": "5341 north market boulevard", "city": "los angeles", "type": "indian"}',NULL,1);
INSERT INTO "records" VALUES('r3','{"name": "little bistro", "address": "8154 s main boulevard", "city": "houston", "type": "japanese"}',NULL,2);
INSERT INTO "records" VALUES('r5','{"name": "new willow bistro", "address": "7794 east oak road", "city": "denver", "type": "bbq"}',NULL,4);
INSERT INTO "records" VALUES('r7','{"name": "oedar lantern kitchen", "address": "2334 south wilshire dr", "city": "boston", "type": "pizza"}',NULL,6);
INSERT INTO "records" VALUES('r8','{"name": "little fork bistro", "address": "8154 south main boulevard", "city": "houston", "type": "bbq"}',NULL,7);
INSERT INTO "records" VALUES('r9','{"name": "new anchor noodle bar", "address": "3012 west lexington road", "city": "miami", "type": "mediterranean"}',NULL,8);
INSERT INTO "records" VALUES('r10','{"name": "blue lotus bar", "address": "4491 south park drive", "city": "chicago", "type": "mexican"}',NULL,9);
INSERT INTO "records" VALUES('r11','{"name": "ocean bzsil steakhouse", "address": "5064 mission st", "city": "seattle", "type": "french"}',NULL,10);
INSERT INTO "records" VALUES('r12','{"name": "corner rose noodle bar", "address": "8033 west wilshire drive", "city": "new york", "type": "pizza"}',NULL,11);
INSERT INTO "records" VALUES('r13','{"name": "silver", "address": "8620 columbus st", "city": "denver", "type": "chinese"}',NULL,12);
INSERT INTO "records" VALUES('r14','{"name": "silver stove trattoria", "address": "8620 north spring avenue", "city": "denver", "type": "american new"}',NULL,13);
INSERT INTO "records" VALUES('r15','{"name": "uptown spoon eatery", "address": "1256 east main road", "city": "houston", "type": "thai"}',NULL,14);
INSERT INTO "records" VALUES('r16','{"name": "lucky kitchen", "address": "6215 wes melrose ave", "city": "new york", "type": "japanese"}',NULL,15);
INSERT INTO "records" VALUES('r17','{"name": "village orchid kitchen", "address": "1586 union drive", "city": "atlanta", "type": "thai"}',NULL,16);
INSERT INTO "records" VALUES('r18','{"name": "green anchor restaurant", "address": "8873 west melrose avenue", "city": "atlanta", "type": "mediterranean"}',NULL,17);
INSERT INTO "records" VALUES('r19','{"name": "happy terrace noodle bar", "address": "7899 east oak boulevard", "city": "boston", "type": "chinese"}',NULL,18);
INSERT INTO "records" VALUES('r20','{"name": "firk grill", "address": "2j08 n columbus street", "city": "san francisco", "type": "thai"}',NULL,19);
INSERT INTO "records" VALUES('r21','{"name": "little dragon steakhouse", "address": "5596 north sunset avenue", "city": "boston", "type": "mexican"}',NULL,20);
INSERT INTO "records" VALUES('r22','{"name": "mountain orchid kitchen", "address": "547 north canal road", "city": "chicago", "type": "french"}',NULL,21);
INSERT INTO "records" VALUES('r23','{"name": "sunny rose steakhouse", "address": "4923 west hill drive", "city": "atlanta", "type": "mexican"}',NULL,22);
INSERT INTO "records" VALUES('r24','{"name": "old lotus bistro", "address": "9293 ventura street", "city": "denver", "type": "vegetarian"}',NULL,23);
INSERT INTO "records" VALUES('r25','{"name": "silver table cafe", "address": "3970 south hill street", "city": "seattle", "type": "steakhouse"}',NULL,24);
INSERT INTO "records" VALUES('r26','{"name": "new willow house", "address": "6034 west maple avenue", "city": "los angeles", "type": "french"}',NULL,25);
INSERT INTO "records" VALUES('r27','{"name": "new dragon steakhouse", "address": "6140 south maple place", "city": "seattle", "type": "chinese"}',NULL,26);
INSERT INTO "records" VALUES('r28','{"name": "corner kettle trattoria", "address": "6577 south hill drive", "city": "chicago", "type": "mediterranean"}',NULL,27);
INSERT INTO "records" VALUES('r29','{"name": "happy hearth restaurant", "address": "5184 north sunset place", "city": "los angeles", "type": "bbq"}',NULL,28);
INSERT INTO "records" VALUES('r30','{"name": "uptown lantern trattoria", "address": "2416 east oak place", "city": "new york", "type": "italian"}',NULL,29);
INSERT INTO "records" VALUES('r6','{"name": "revised beyond recognition", "address": "1868 east canal avenue", "city": "boston", "type": "thai"}',NULL,30);
CREATE INDEX records_arrival ON records(arrival);
DELETE FROM "sqlite_sequence";
INSERT INTO "sqlite_sequence" VALUES('assignment_seconds',9);
COMMIT;
